// The benchmark is its own module so the repository's tier-1
// `go build ./... && go test ./...` never compiles or runs it; the
// replace directive builds it against the checkout it sits in.
module identitybox/benchmark

go 1.22

require identitybox v0.0.0

replace identitybox => ../
