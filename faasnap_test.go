package faasnap_test

import (
	"testing"
	"time"

	"faasnap"
)

func TestCatalogExposed(t *testing.T) {
	names := faasnap.Catalog()
	if len(names) != 12 {
		t.Fatalf("catalog = %v", names)
	}
}

func TestRegisterUnknown(t *testing.T) {
	p := faasnap.New()
	if _, err := p.Register("nope"); err == nil {
		t.Fatal("registering unknown function succeeded")
	}
}

func TestRegisterIdempotent(t *testing.T) {
	p := faasnap.New()
	a, err := p.Register("json")
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Register("json")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("double registration returned different functions")
	}
}

func TestInvokeBeforeRecordFails(t *testing.T) {
	p := faasnap.New()
	fn, _ := p.Register("json")
	if _, err := fn.Invoke(faasnap.ModeFaaSnap, "A"); err == nil {
		t.Fatal("invoke before record succeeded")
	}
	if _, err := fn.Burst(faasnap.ModeFaaSnap, "A", 2, true); err == nil {
		t.Fatal("burst before record succeeded")
	}
}

func TestRecordAndInvokeFlow(t *testing.T) {
	p := faasnap.New()
	fn, err := p.Register("hello-world")
	if err != nil {
		t.Fatal(err)
	}
	rec, err := fn.Record("A")
	if err != nil {
		t.Fatal(err)
	}
	if rec.WSPages == 0 || rec.LSPages == 0 {
		t.Fatalf("record = %+v", rec)
	}
	if !fn.Recorded() || fn.Artifacts() == nil {
		t.Fatal("artifacts not retained")
	}
	res, err := fn.Invoke(faasnap.ModeFaaSnap, "B")
	if err != nil {
		t.Fatal(err)
	}
	if res.Total <= 0 || res.Faults.Total() == 0 {
		t.Fatalf("result = %+v", res)
	}
}

func TestModeOrderingThroughPublicAPI(t *testing.T) {
	p := faasnap.New()
	fn, _ := p.Register("image")
	if _, err := fn.Record("A"); err != nil {
		t.Fatal(err)
	}
	get := func(m faasnap.Mode) time.Duration {
		r, err := fn.Invoke(m, "B")
		if err != nil {
			t.Fatal(err)
		}
		return r.Total
	}
	warm := get(faasnap.ModeWarm)
	fc := get(faasnap.ModeFirecracker)
	fs := get(faasnap.ModeFaaSnap)
	if !(warm < fs && fs < fc) {
		t.Fatalf("ordering violated: warm %v, faasnap %v, firecracker %v", warm, fs, fc)
	}
}

func TestResolveInput(t *testing.T) {
	p := faasnap.New()
	fn, _ := p.Register("json")
	a, err := fn.ResolveInput("A")
	if err != nil || a.Name != "A" {
		t.Fatalf("A = %+v, %v", a, err)
	}
	r, err := fn.ResolveInput("ratio:2.5")
	if err != nil {
		t.Fatal(err)
	}
	if r.DataPages != int64(float64(a.DataPages)*2.5) {
		t.Fatalf("ratio pages = %d", r.DataPages)
	}
	if _, err := fn.ResolveInput("garbage"); err == nil {
		t.Fatal("garbage input resolved")
	}
	if _, err := fn.ResolveInput("ratio:-1"); err == nil {
		t.Fatal("negative ratio resolved")
	}
	// Sscanf used to stop at the first character that was not a number.
	if _, err := fn.ResolveInput("ratio:2abc"); err == nil {
		t.Fatal("ratio with trailing garbage resolved")
	}
}

func TestRemoteStorageConfig(t *testing.T) {
	cfg := faasnap.DefaultConfig()
	cfg.RemoteStorage = true
	p := faasnap.New(cfg)
	fn, _ := p.Register("json")
	if _, err := fn.Record("A"); err != nil {
		t.Fatal(err)
	}
	remote, err := fn.Invoke(faasnap.ModeFirecracker, "B")
	if err != nil {
		t.Fatal(err)
	}

	local := faasnap.New()
	lfn, _ := local.Register("json")
	if _, err := lfn.Record("A"); err != nil {
		t.Fatal(err)
	}
	lres, err := lfn.Invoke(faasnap.ModeFirecracker, "B")
	if err != nil {
		t.Fatal(err)
	}
	if remote.Total <= lres.Total {
		t.Fatalf("remote (%v) not slower than local (%v)", remote.Total, lres.Total)
	}
}

func TestBurstThroughPublicAPI(t *testing.T) {
	p := faasnap.New()
	fn, _ := p.Register("hello-world")
	if _, err := fn.Record("A"); err != nil {
		t.Fatal(err)
	}
	br, err := fn.Burst(faasnap.ModeFaaSnap, "A", 8, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != 8 || br.Mean <= 0 {
		t.Fatalf("burst = %+v", br)
	}
	if _, err := fn.Burst(faasnap.ModeFaaSnap, "A", 0, true); err == nil {
		t.Fatal("zero-parallel burst succeeded")
	}
}

func TestWarmEstimate(t *testing.T) {
	p := faasnap.New()
	fn, _ := p.Register("hello-world")
	est, err := fn.WarmEstimate("A")
	if err != nil {
		t.Fatal(err)
	}
	if est <= 0 || est > 20*time.Millisecond {
		t.Fatalf("hello-world warm estimate = %v", est)
	}
}

func TestParseMode(t *testing.T) {
	m, err := faasnap.ParseMode("faasnap")
	if err != nil || m != faasnap.ModeFaaSnap {
		t.Fatalf("ParseMode = %v, %v", m, err)
	}
	if len(faasnap.Modes()) != 5 {
		t.Fatalf("Modes() = %v", faasnap.Modes())
	}
}

func TestRegisterCustom(t *testing.T) {
	p := faasnap.New()
	fn, err := p.RegisterCustom(faasnap.CustomSpec{
		Name: "etl-step", Description: "a custom ETL stage",
		BootMB: 100, StablePages: 3000, ChunkMean: 4, RetainFrac: 0.25,
		BaseMs: 40, PerPageUs: 2, InitMs: 700,
		InputA: faasnap.CustomInput{Bytes: 32 << 10, DataPages: 500},
		InputB: faasnap.CustomInput{Bytes: 64 << 10, DataPages: 1000},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fn.Record("A"); err != nil {
		t.Fatal(err)
	}
	fs, err := fn.Invoke(faasnap.ModeFaaSnap, "B")
	if err != nil {
		t.Fatal(err)
	}
	fc, err := fn.Invoke(faasnap.ModeFirecracker, "B")
	if err != nil {
		t.Fatal(err)
	}
	if fs.Total >= fc.Total {
		t.Fatalf("custom fn: faasnap (%v) not faster than firecracker (%v)", fs.Total, fc.Total)
	}
	// Re-registering the same name fails.
	if _, err := p.RegisterCustom(faasnap.CustomSpec{Name: "etl-step", BootMB: 100, StablePages: 100}); err == nil {
		t.Fatal("duplicate custom registration succeeded")
	}
	// Invalid specs are rejected.
	if _, err := p.RegisterCustom(faasnap.CustomSpec{Name: "bad"}); err == nil {
		t.Fatal("invalid custom spec accepted")
	}
}

func TestFaultKindAliases(t *testing.T) {
	p := faasnap.New()
	fn, _ := p.Register("mmap")
	if _, err := fn.Record("A"); err != nil {
		t.Fatal(err)
	}
	res, err := fn.Invoke(faasnap.ModeFaaSnap, "B")
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults.Count[faasnap.FaultAnon] == 0 {
		t.Fatal("mmap under faasnap had no anonymous faults")
	}
	if res.Faults.Count[faasnap.FaultUffd] != 0 {
		t.Fatal("faasnap mode used userfaultfd")
	}
}

func TestMixedBurstThroughPublicAPI(t *testing.T) {
	p := faasnap.New()
	for _, name := range []string{"hello-world", "json"} {
		fn, err := p.Register(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fn.Record("A"); err != nil {
			t.Fatal(err)
		}
	}
	br, err := p.MixedBurst([]string{"hello-world", "json"}, faasnap.ModeFaaSnap, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != 6 {
		t.Fatalf("results = %d", len(br.Results))
	}
	if _, err := p.MixedBurst([]string{"nope"}, faasnap.ModeFaaSnap, 2); err == nil {
		t.Fatal("unregistered function accepted")
	}
	if _, err := p.MixedBurst(nil, faasnap.ModeFaaSnap, 2); err == nil {
		t.Fatal("empty function list accepted")
	}
}
