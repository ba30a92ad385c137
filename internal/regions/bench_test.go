package regions

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/cfg"
	"repro/internal/mediabench"
	"repro/internal/objfile"
	"repro/internal/profile"
	"repro/internal/squeeze"
	"repro/internal/vm"
)

// BenchmarkPartition times region selection on the largest MediaBench
// program (rasta), squeezed and profiled on a 40 KB prefix of its profiling
// input, at θ = 1e-4 with the paper's default configuration.
func BenchmarkPartition(b *testing.B) {
	spec, ok := mediabench.SpecByName("rasta")
	if !ok {
		b.Fatal("spec missing")
	}
	obj, err := asm.Assemble(spec.Generate())
	if err != nil {
		b.Fatal(err)
	}
	p, err := cfg.Build(obj, "main")
	if err != nil {
		b.Fatal(err)
	}
	if _, err := squeeze.Run(p); err != nil {
		b.Fatal(err)
	}
	sqObj, err := cfg.Lower(p)
	if err != nil {
		b.Fatal(err)
	}
	im, err := objfile.Link("main", sqObj)
	if err != nil {
		b.Fatal(err)
	}
	in := spec.ProfilingInput()
	m := vm.New(im, in[:min(len(in), 40000)])
	m.EnableProfile()
	if err := m.Run(); err != nil {
		b.Fatal(err)
	}
	if p, err = cfg.Build(sqObj, "main"); err != nil {
		b.Fatal(err)
	}
	if err := p.AttachProfile(m.ProfileCounts()); err != nil {
		b.Fatal(err)
	}
	cold := profile.IdentifyCold(p, 1e-4).Cold
	conf := DefaultConfig()
	conf.Workers = 1

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Partition(p, cold, conf); err != nil {
			b.Fatal(err)
		}
	}
}
