package main

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"sort"
)

// The generator is everything the seed drives: op order, key choice,
// payload bytes and arrival times. It owns its own PRNG (splitmix64)
// so a seed means the same requests on every Go version; the servers
// only ever see the requests it produces.

// rng is a splitmix64 stream.
type rng struct{ s uint64 }

// newRNG derives an independent stream from the run seed and a list of
// stream identifiers (workload, caller, slot, version, ...).
func newRNG(seed uint64, stream ...uint64) *rng {
	r := &rng{s: seed*0x9e3779b97f4a7c15 + 0x632be59bd9b4e019}
	for _, id := range stream {
		r.s ^= r.u64() + id*0xbf58476d1ce4e5b9
	}
	return r
}

func (r *rng) u64() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform value in [0,1).
func (r *rng) float() float64 { return float64(r.u64()>>11) / (1 << 53) }

func (r *rng) intn(n int) int { return int(r.u64() % uint64(n)) }

// exp returns an Exp(1) variate: Poisson inter-arrival gaps are
// exp()/rate.
func (r *rng) exp() float64 { return -math.Log(1 - r.float()) }

// fill writes pseudo-random bytes over p.
func (r *rng) fill(p []byte) {
	for len(p) >= 8 {
		binary.LittleEndian.PutUint64(p, r.u64())
		p = p[8:]
	}
	if len(p) > 0 {
		var tail [8]byte
		binary.LittleEndian.PutUint64(tail[:], r.u64())
		copy(p, tail[:])
	}
}

// zipf draws ranks 0..n-1 with probability proportional to 1/(rank+1)^s.
// (math/rand's Zipf needs s > 1; the workloads use s = 1.)
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	cdf := make([]float64, n)
	var sum float64
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &zipf{cdf: cdf}
}

func (z *zipf) draw(r *rng) int {
	i := sort.SearchFloat64s(z.cdf, r.float())
	if i >= len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return i
}

// headShare is the theoretical probability mass of the k most popular
// ranks.
func (z *zipf) headShare(k int) float64 { return z.cdf[k-1] }

// opKind names one driver-level operation. The read kinds make up the
// metadata mix (Figure 5(b)'s make-like traffic), the write kinds the
// durable_write mix, and opJob is one whole Figure 3 job.
type opKind uint8

const (
	opStat opKind = iota
	opOpenRead
	opReaddir
	opGetACL
	opLstat
	opPutFile
	opCreateUnlink
	opRename
	opRenameCross
	opMkdirRmdir
	opSetACL
	opJob
	numOpKinds
)

var opNames = [numOpKinds]string{
	"stat", "open_pread_close", "readdir", "getacl", "lstat",
	"putfile_4k", "create_unlink", "rename", "rename_cross", "mkdir_rmdir", "setacl",
	"job",
}

func (k opKind) String() string { return opNames[k] }

func (k opKind) isWrite() bool { return k >= opPutFile && k <= opSetACL }

// mixEntry is one line of an op mix: kind and cumulative probability.
type mixEntry struct {
	kind opKind
	cum  float64
}

// readMix is stat 50 % / open+pread+close 30 % / readdir 10 % /
// getacl 5 % / lstat 5 %.
var readMix = []mixEntry{
	{opStat, 0.50}, {opOpenRead, 0.80}, {opReaddir, 0.90}, {opGetACL, 0.95}, {opLstat, 1},
}

// writeMix is PutFile 60 % / create→unlink 15 % / rename 10 % (one in
// five cross-subtree) / mkdir→rmdir 10 % / setacl 5 %.
var writeMix = []mixEntry{
	{opPutFile, 0.60}, {opCreateUnlink, 0.75}, {opRename, 0.83}, {opRenameCross, 0.85},
	{opMkdirRmdir, 0.95}, {opSetACL, 1},
}

func drawKind(mix []mixEntry, r *rng) opKind {
	u := r.float()
	for _, e := range mix {
		if u < e.cum {
			return e.kind
		}
	}
	return mix[len(mix)-1].kind
}

// target says which populated set an op addresses.
type target uint8

const (
	tgtPrivate target = iota // the caller's own reserve-minted home
	tgtShared                // the shared /proj directories with 64-entry ACLs
	tgtWrite                 // the durable_write subtrees
	tgtJob                   // /work/<job>
)

// op is one generated operation: what to do, where, and the draws that
// pick the key. a is a popularity rank (directory or subtree), b a
// uniform pick inside it, c a second rank (cross-rename destination).
type op struct {
	kind opKind
	tgt  target
	a, b int
	c    int
}

// opGen produces one caller's op stream for a closed loop, or the whole
// arrival stream for the open loop.
type opGen struct {
	r        *rng
	workload string
	dirs     *zipf // over the directories a read may address
	subtrees *zipf // over the write subtrees
	shared   *zipf // over the shared directories (mixed_open)
	geo      geometry
}

// geometry is the bounded working set every workload is populated with;
// only -scale changes it.
type geometry struct {
	conns        int // C
	callers      int // in-flight callers per connection (closed loops)
	metaDirs     int // directories in the private and in the shared set (total)
	filesPerDir  int
	metaFileSize int
	sharedACL    int // entries in a shared directory's ACL
	subtrees     int // durable_write top-level subtrees
	slotsPerTree int // slot files per subtree
	writeSize    int // PutFile payload
	jobSize      int // stage_exec input.dat
	renameSlots  int // rename slots per shared directory (mixed_open)
}

func newOpGen(seed uint64, workload string, caller int, geo geometry) *opGen {
	g := &opGen{r: newRNG(seed, streamID(workload), uint64(caller)), workload: workload, geo: geo}
	switch workload {
	case "meta_private":
		g.dirs = newZipf(geo.metaDirs/geo.conns, 1)
	case "meta_shared":
		g.dirs = newZipf(geo.metaDirs, 1)
	case "durable_write":
		g.subtrees = newZipf(geo.subtrees, 1)
	case "mixed_open":
		g.dirs = newZipf(geo.metaDirs/geo.conns, 1)
		g.shared = newZipf(geo.metaDirs, 1)
		g.subtrees = newZipf(geo.subtrees, 1)
	}
	return g
}

func streamID(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// next draws the caller's next op.
func (g *opGen) next() op {
	switch g.workload {
	case "meta_private":
		return g.read(tgtPrivate, g.dirs)
	case "meta_shared":
		return g.read(tgtShared, g.dirs)
	case "durable_write":
		return g.write()
	case "stage_exec":
		return op{kind: opJob, tgt: tgtJob}
	default: // mixed_open: 90 % reads, half private-style and half shared-style
		u := g.r.float()
		switch {
		case u < 0.45:
			o := g.read(tgtPrivate, g.dirs)
			o.c = g.r.intn(g.geo.conns) // whose home: routes the op to that principal's connection
			return o
		case u < 0.90:
			return g.read(tgtShared, g.shared)
		default:
			o := g.write()
			if o.kind == opRename || o.kind == opRenameCross || o.kind == opSetACL {
				// Aimed at the shared directories the reads hit.
				o.tgt = tgtShared
				o.a = g.shared.draw(g.r)
				o.b = g.r.intn(g.geo.renameSlots)
				o.c = g.shared.draw(g.r)
			}
			return o
		}
	}
}

func (g *opGen) read(t target, dirs *zipf) op {
	return op{kind: drawKind(readMix, g.r), tgt: t, a: dirs.draw(g.r), b: g.r.intn(g.geo.filesPerDir)}
}

func (g *opGen) write() op {
	return op{
		kind: drawKind(writeMix, g.r),
		tgt:  tgtWrite,
		a:    g.subtrees.draw(g.r),
		b:    g.r.intn(g.geo.slotsPerTree),
		c:    g.subtrees.draw(g.r),
	}
}

// digestOps hashes the first n ops of a stream: the generator tests pin
// "same seed, same requests" on it.
func digestOps(g *opGen, n int) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for i := 0; i < n; i++ {
		o := g.next()
		buf = [8]byte{byte(o.kind), byte(o.tgt), byte(o.a), byte(o.a >> 8), byte(o.b), byte(o.b >> 8), byte(o.c), byte(o.c >> 8)}
		h.Write(buf[:])
	}
	return h.Sum64()
}

// arrival is one open-loop request: when it is due (offset from the
// step's start) and what it does.
type arrival struct {
	due int64 // nanoseconds from step start
	op  op
}

// poissonArrivals generates a step's whole arrival schedule up front:
// exponential gaps at the given rate until the step's duration is
// covered. Generating before the step starts keeps the generator's own
// cost out of the measured window.
func poissonArrivals(g *opGen, rate float64, durNs int64) []arrival {
	out := make([]arrival, 0, int(rate*float64(durNs)/1e9*1.1)+16)
	var t float64
	for {
		t += g.r.exp() / rate * 1e9
		if int64(t) >= durNs {
			return out
		}
		out = append(out, arrival{due: int64(t), op: g.next()})
	}
}

// Content streams: which family of files a payload belongs to.
const (
	contentPrivate uint64 = iota + 1
	contentShared
	contentSlot
	contentRenameSlot
)

// fileContent fills p with the bytes the seed assigns to (stream, key,
// version). The first eight bytes name the key and version so a wrong
// answer says which write it came from.
func fileContent(seed, stream uint64, key, version int, p []byte) {
	newRNG(seed, stream, uint64(key), uint64(version)).fill(p)
	if len(p) >= 8 {
		binary.LittleEndian.PutUint32(p, uint32(key))
		binary.LittleEndian.PutUint32(p[4:], uint32(version))
	}
}
