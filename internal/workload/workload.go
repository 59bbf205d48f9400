// Package workload implements the programs measured in the paper's
// evaluation (Section 7): the microbenchmarks of Figure 5(a) and the
// six applications of Figure 5(b).
//
// The real binaries (AMANDA, BLAST, CMS, HF, IBIS, and a make-based
// software build) are replaced by synthetic applications that issue the
// same *mixes* of system calls — large-block sequential I/O for the
// science codes, dense small metadata traffic and child processes for
// the build — with compute time between calls matching the paper's
// reported runtimes. The paper attributes the overhead differences
// entirely to these mixes, so reproducing the mixes reproduces the
// overhead shape (see DESIGN.md, substitutions).
package workload

import (
	"fmt"

	"identitybox/internal/acl"
	"identitybox/internal/kernel"
	"identitybox/internal/vclock"
	"identitybox/internal/vfs"
)

// BenchRoot is the directory the workloads operate in. Setup gives it
// an ACL granting every identity full rights, so the same program runs
// unmodified both natively and inside any identity box.
const BenchRoot = "/bench"

// dataFile is the warm input file, resident "in the buffer cache"
// (our VFS is memory-resident by construction, matching the paper's
// warm-cache methodology).
const dataFile = BenchRoot + "/input.dat"

// outFile receives bulk writes.
const outFile = BenchRoot + "/output.dat"

// srcFiles is the number of small "source files" the make workload
// stats and rebuilds.
const srcFiles = 100

// BlockSize is the bulk transfer unit, as in Figure 5(a).
const BlockSize = 8192

// DataFileSize is the size of the warm input file.
const DataFileSize = 1 << 20

// Setup prepares the bench tree on a file system: input data, output
// file, source tree, and a permissive ACL so boxed runs are authorized.
func Setup(fs *vfs.FS, owner string) error {
	if err := fs.MkdirAll(BenchRoot, 0o777, owner); err != nil {
		return err
	}
	open := &acl.ACL{}
	open.Set("*", acl.All, acl.None)
	if err := fs.WriteFile(BenchRoot+"/"+acl.FileName, []byte(open.String()), 0o644, owner); err != nil {
		return err
	}
	data := make([]byte, DataFileSize)
	for i := range data {
		data[i] = byte(i * 131)
	}
	if err := fs.WriteFile(dataFile, data, 0o666, owner); err != nil {
		return err
	}
	if err := fs.WriteFile(outFile, nil, 0o666, owner); err != nil {
		return err
	}
	for i := 0; i < srcFiles; i++ {
		p := fmt.Sprintf("%s/src%02d.c", BenchRoot, i)
		if err := fs.WriteFile(p, []byte("int main(){return 0;}\n"), 0o666, owner); err != nil {
			return err
		}
	}
	return nil
}

// Mix is a count of each operation type an application issues.
type Mix struct {
	Reads8k   int // 8 kB preads from the warm input file
	Writes8k  int // 8 kB pwrites to the output file
	Stats     int // stat calls over the source tree
	OpenClose int // open+close pairs on existing files
	Small     int // 1-byte preads
	Children  int // child processes spawned (the build's compilers)
}

// Ops reports the total operation count (open/close pairs count once).
func (m Mix) Ops() int {
	return m.Reads8k + m.Writes8k + m.Stats + m.OpenClose + m.Small + m.Children
}

// App is one application of Figure 5(b).
type App struct {
	Name string
	// Description says what the real application is.
	Description string
	// ComputeSeconds is pure application CPU time between system
	// calls, calibrated so the native runtime approximates the paper's
	// bar height.
	ComputeSeconds float64
	// Mix is the syscall mix.
	Mix Mix
	// PaperOverheadPct is the bar annotation in Figure 5(b).
	PaperOverheadPct float64
	// PaperRuntimeSeconds approximates the native bar height.
	PaperRuntimeSeconds float64
}

// Scaled returns the app shrunk by factor f (both compute and ops), so
// unit tests run quickly; the relative overhead is invariant under
// scaling.
func (a App) Scaled(f float64) App {
	s := a
	s.ComputeSeconds *= f
	s.Mix = Mix{
		Reads8k:   int(float64(a.Mix.Reads8k) * f),
		Writes8k:  int(float64(a.Mix.Writes8k) * f),
		Stats:     int(float64(a.Mix.Stats) * f),
		OpenClose: int(float64(a.Mix.OpenClose) * f),
		Small:     int(float64(a.Mix.Small) * f),
		Children:  a.Mix.Children, // keep process structure
	}
	if a.Mix.Children > 4 {
		s.Mix.Children = int(float64(a.Mix.Children) * f)
		if s.Mix.Children < 1 {
			s.Mix.Children = 1
		}
	}
	return s
}

// Apps returns the six applications, in the order of Figure 5(b), with
// mixes calibrated against the default cost model (see DESIGN.md §2).
func Apps() []App {
	return []App{
		{
			Name:                "amanda",
			Description:         "simulation of a gamma-ray telescope (AMANDA)",
			ComputeSeconds:      997.2,
			Mix:                 Mix{Reads8k: 300000, Writes8k: 100000, Stats: 50000, OpenClose: 25000, Small: 100000},
			PaperOverheadPct:    1.1,
			PaperRuntimeSeconds: 1000,
		},
		{
			Name:                "blast",
			Description:         "genomic database search (BLAST)",
			ComputeSeconds:      345.0,
			Mix:                 Mix{Reads8k: 700000, Stats: 100000, OpenClose: 50000, Small: 60000},
			PaperOverheadPct:    5.2,
			PaperRuntimeSeconds: 350,
		},
		{
			Name:                "cms",
			Description:         "high-energy physics apparatus simulation (CMS)",
			ComputeSeconds:      895.0,
			Mix:                 Mix{Reads8k: 500000, Writes8k: 200000, Stats: 150000, OpenClose: 40000, Small: 70000},
			PaperOverheadPct:    2.1,
			PaperRuntimeSeconds: 900,
		},
		{
			Name:                "hf",
			Description:         "nucleic/electronic interaction simulation (HF)",
			ComputeSeconds:      442.0,
			Mix:                 Mix{Reads8k: 300000, Writes8k: 900000, Stats: 120000, OpenClose: 30000, Small: 80000},
			PaperOverheadPct:    6.5,
			PaperRuntimeSeconds: 450,
		},
		{
			Name:                "ibis",
			Description:         "climate simulation (IBIS)",
			ComputeSeconds:      648.8,
			Mix:                 Mix{Reads8k: 120000, Writes8k: 60000, Stats: 30000, Small: 20000},
			PaperOverheadPct:    0.7,
			PaperRuntimeSeconds: 650,
		},
		{
			Name:                "make",
			Description:         "software build of the Parrot source tree (make)",
			ComputeSeconds:      190.0,
			Mix:                 Mix{Reads8k: 50000, Stats: 3000000, OpenClose: 800000, Small: 600000, Children: 200},
			PaperOverheadPct:    35.0,
			PaperRuntimeSeconds: 200,
		},
	}
}

// AppByName looks up an application.
func AppByName(name string) (App, bool) {
	for _, a := range Apps() {
		if a.Name == name {
			return a, true
		}
	}
	return App{}, false
}

// Program compiles the app into a runnable kernel program. The program
// interleaves operation types deterministically (largest-remainder
// scheduling) and spreads compute time evenly between operations, so
// both native and boxed runs execute the identical call sequence.
func (a App) Program() kernel.Program {
	return func(p *kernel.Proc, _ []string) int {
		mix := a.Mix
		childOps := Mix{}
		if mix.Children > 0 {
			// The build's compilers do part of the metadata work.
			per := mix.Children + 1
			childOps = Mix{
				Stats:     mix.Stats / per,
				OpenClose: mix.OpenClose / per,
				Small:     mix.Small / per,
			}
			mix.Stats -= childOps.Stats * mix.Children
			mix.OpenClose -= childOps.OpenClose * mix.Children
			mix.Small -= childOps.Small * mix.Children
		}
		totalOps := a.Mix.Ops()
		if totalOps == 0 {
			totalOps = 1
		}
		computePerOp := vclock.Micros(a.ComputeSeconds * 1e6 / float64(totalOps))

		if mix.Children > 0 {
			if err := installChildProgram(p.Kernel(), a.Name, childOps, computePerOp); err != nil {
				return 1
			}
		}
		if code := runMix(p, mix, computePerOp, a.Name); code != 0 {
			return code
		}
		return 0
	}
}

// childProgPath is where the build's "compiler" binary lives.
func childProgPath(app string) string { return BenchRoot + "/cc-" + app + ".exe" }

// installChildProgram registers and stages the compiler child used by
// the make workload.
func installChildProgram(k *kernel.Kernel, app string, ops Mix, computePerOp vclock.Micros) error {
	progName := "workload-child-" + app
	k.RegisterProgram(progName, func(p *kernel.Proc, _ []string) int {
		return runMix(p, ops, computePerOp, app)
	})
	if k.FS().Exists(childProgPath(app)) {
		return nil
	}
	return k.FS().WriteFile(childProgPath(app), kernel.ExecutableBytes(progName), 0o777, "root")
}

// runMix issues the operations of mix in a deterministic interleaving.
func runMix(p *kernel.Proc, mix Mix, computePerOp vclock.Micros, app string) int {
	inFD, err := p.Open(dataFile, kernel.ORdonly, 0)
	if err != nil {
		return 10
	}
	outFD, err := p.Open(outFile, kernel.OWronly, 0)
	if err != nil {
		return 11
	}
	buf := make([]byte, BlockSize)
	one := make([]byte, 1)

	// Largest-remainder interleaving over the op kinds.
	type opKind struct {
		count int
		run   func(i int) bool
	}
	kinds := []opKind{
		{mix.Reads8k, func(i int) bool {
			off := int64(i*BlockSize) % (DataFileSize - BlockSize)
			n, err := p.Pread(inFD, buf, off)
			return err == nil && n == BlockSize
		}},
		{mix.Writes8k, func(i int) bool {
			off := int64(i*BlockSize) % (4 << 20)
			_, err := p.Pwrite(outFD, buf, off)
			return err == nil
		}},
		{mix.Stats, func(i int) bool {
			_, err := p.Stat(fmt.Sprintf("%s/src%02d.c", BenchRoot, i%srcFiles))
			return err == nil
		}},
		{mix.OpenClose, func(i int) bool {
			fd, err := p.Open(fmt.Sprintf("%s/src%02d.c", BenchRoot, i%srcFiles), kernel.ORdonly, 0)
			if err != nil {
				return false
			}
			return p.Close(fd) == nil
		}},
		{mix.Small, func(i int) bool {
			_, err := p.Pread(inFD, one, int64(i)%DataFileSize)
			return err == nil
		}},
		{mix.Children, func(i int) bool {
			pid, err := p.Spawn(childProgPath(app))
			if err != nil {
				return false
			}
			_, status, err := p.Wait(pid)
			return err == nil && status == 0
		}},
	}
	total := 0
	for _, k := range kinds {
		total += k.count
	}
	issued := make([]int, len(kinds))
	for n := 0; n < total; n++ {
		// Pick the kind furthest behind its proportional share.
		best, bestLag := -1, 0.0
		for ki, k := range kinds {
			if issued[ki] >= k.count {
				continue
			}
			lag := float64(k.count)*float64(n+1)/float64(total) - float64(issued[ki])
			if best < 0 || lag > bestLag {
				best, bestLag = ki, lag
			}
		}
		if best < 0 {
			break
		}
		if !kinds[best].run(issued[best]) {
			return 20 + best
		}
		issued[best]++
		p.Compute(computePerOp)
	}
	if p.Close(inFD) != nil || p.Close(outFD) != nil {
		return 12
	}
	return 0
}
