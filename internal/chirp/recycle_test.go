package chirp

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"identitybox/internal/obs"
	"identitybox/internal/vfs"
)

// TestRecycledArgsNotKept: a request's argument array goes back to the
// pool once its reply is flushed, overwritten with recycledArg, so a
// handler that kept args (rather than the strings in them) would leave
// the poison wherever it kept them. Four clients' worth of mkdir,
// rename, link, symlink, setacl and tokened exec later, the tree, the
// span ring's Cmds and the dedupe table must hold only the real names.
func TestRecycledArgsNotKept(t *testing.T) {
	req := &request{fields: []string{"mkdir", "755", "/x"}}
	arr := req.fields
	req.recycle()
	if !slices.Equal(arr, []string{recycledArg, recycledArg, recycledArg}) {
		t.Fatalf("a recycled request's arguments read %q, want the poison", arr)
	}

	bothWindows(t, func(t *testing.T, win int) {
		srv, _ := dedupeServer(t, nil, nil, nil, nil) // the in-memory dedupe table
		srv.opts.Spans = obs.NewSpanRing(1024)
		cl := adminClient(t, srv, ClientOptions{Window: win, Spans: obs.NewSpanRing(1024)})
		const clients, rounds = 4, 6
		tokens := make([][]string, clients)
		var wg sync.WaitGroup
		errs := make(chan error, clients)
		for w := 0; w < clients; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < rounds; i++ {
					d := fmt.Sprintf("/w%d-%d", w, i)
					tok := NewRequestToken()
					tokens[w] = append(tokens[w], tok)
					for _, step := range []func() error{
						func() error { return cl.Mkdir(d, 0o755) },
						func() error { return cl.PutFile(d+"/f", []byte("data"), 0o644) },
						func() error { return cl.Rename(d+"/f", d+"/g") },
						func() error { return cl.Link(d+"/g", d+"/h") },
						func() error { return cl.Symlink(d+"/g", d+"/s") },
						func() error { return cl.SetACL(d, fmt.Sprintf("unix:admin rwlax\nunix:w%d rl\n", w)) },
						func() error { _, err := cl.ExecToken(tok, d, "/sim.exe"); return err },
					} {
						if err := step(); err != nil {
							errs <- fmt.Errorf("%s: %w", d, err)
							return
						}
					}
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}

		fs := srv.fs
		for w := 0; w < clients; w++ {
			for i := 0; i < rounds; i++ {
				d := fmt.Sprintf("/w%d-%d", w, i)
				ents, err := fs.ReadDir(d)
				if err != nil {
					t.Fatal(err)
				}
				var names []string
				for _, e := range ents {
					names = append(names, e.Name)
				}
				slices.Sort(names)
				if want := []string{".__acl", "g", "h", "s"}; !slices.Equal(names, want) {
					t.Errorf("%s holds %q, want %q", d, names, want)
				}
				if target, err := fs.Readlink(d + "/s"); err != nil || target != d+"/g" {
					t.Errorf("%s/s points at %q (%v), want %s/g", d, target, err, d)
				}
				if text, err := fs.ReadFile(vfs.Join(d, ".__acl")); err != nil || !strings.Contains(string(text), fmt.Sprintf("unix:w%d", w)) {
					t.Errorf("%s's ACL reads %q (%v)", d, text, err)
				}
				reply, ok := srv.dedupe.LookupDedupe(dedupeKey("unix:admin", tokens[w][i]))
				if !ok || len(reply) != 3 || reply[0] != "ok" || slices.Contains(reply, recycledArg) {
					t.Errorf("dedupe entry for %s's exec = %q, %v", d, reply, ok)
				}
			}
		}
		root, err := fs.ReadDir("/")
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range root {
			if strings.Contains(e.Name, recycledArg) {
				t.Errorf("the root holds a poisoned name %q", e.Name)
			}
		}
		// A server span is recorded once its reply is flushed, which may
		// be after the client holds the reply: poll for the last ones.
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			seen := map[string]int{}
			for _, sp := range srv.opts.Spans.Spans() {
				if sp.Name != "server" {
					continue
				}
				if commandByName[sp.Cmd] == nil {
					t.Fatalf("a server span's Cmd is %q", sp.Cmd)
				}
				seen[sp.Cmd]++
			}
			short := ""
			for _, cmd := range []string{"mkdir", "rename", "link", "symlink", "setacl", "exec"} {
				if seen[cmd] != clients*rounds {
					short += fmt.Sprintf(" %s:%d", cmd, seen[cmd])
				}
			}
			if short == "" {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("server spans per command, want %d each:%s", clients*rounds, short)
			}
		}
	})
}
