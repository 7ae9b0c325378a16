package argo

import (
	"reflect"
	"strings"
	"testing"

	"argo/internal/sim"
)

func TestPlatformLookup(t *testing.T) {
	for _, name := range PlatformNames() {
		if Platform(name) == nil {
			t.Errorf("Platform(%q) = nil", name)
		}
	}
	if Platform("bogus") != nil {
		t.Fatal("bogus platform")
	}
}

func TestPlatformJSONRoundTrip(t *testing.T) {
	p := Platform("leon3-2x2")
	data, err := EncodePlatform(p)
	if err != nil {
		t.Fatal(err)
	}
	q, err := DecodePlatform(data)
	if err != nil {
		t.Fatal(err)
	}
	if q.Name != p.Name {
		t.Fatal("round trip")
	}
}

func TestCompileUseCaseAndSimulate(t *testing.T) {
	uc := UseCaseByName("polka")
	art, err := CompileUseCase(uc, Platform("xentium4"))
	if err != nil {
		t.Fatal(err)
	}
	if art.Bound() <= 0 {
		t.Fatal("no bound")
	}
	rep, err := Simulate(art, uc.Inputs(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckBounds(art, rep); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(Describe(art), "polka") {
		t.Fatal(Describe(art))
	}
}

func TestCompileSourceAPI(t *testing.T) {
	src := `function r = f(v)
  r = 0
  for i = 1:16
    r = r + sqrt(abs(v(1, i)))
  end
endfunction`
	art, err := CompileSource(src, DefaultOptions("f", []ArgSpec{MatrixArg(1, 16)}, Platform("xentium2")))
	if err != nil {
		t.Fatal(err)
	}
	if art.Bound() <= 0 {
		t.Fatal("bound")
	}
	if !strings.Contains(EmitC(art), "core_0_main") {
		t.Fatal("EmitC")
	}
	if !strings.Contains(Explain(art), "cross-layer") {
		t.Fatal("Explain")
	}
}

func TestCompileDiagramAPI(t *testing.T) {
	d := &Diagram{
		Name:   "quick",
		Inputs: []string{"x"},
		Blocks: []Block{
			{Name: "g", Kind: "gain", Params: map[string]float64{"k": 3}},
			{Name: "s", Kind: "sumall"},
		},
		Links: []Link{
			{From: "x", To: "g", Port: 0},
			{From: "g", To: "s", Port: 0},
		},
		Outputs: []string{"s"},
	}
	art, err := CompileDiagram(d, []ArgSpec{MatrixArg(4, 4)}, Platform("xentium2"))
	if err != nil {
		t.Fatal(err)
	}
	in := make([]float64, 16)
	for i := range in {
		in[i] = 1
	}
	rep, err := Simulate(art, [][]float64{in})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Results[0][0] != 48 { // sum(3 * ones(4,4))
		t.Fatalf("diagram result: %g", rep.Results[0][0])
	}
}

func TestOptimizeUseCase(t *testing.T) {
	uc := UseCaseByName("weaa")
	res, err := OptimizeUseCase(uc, Platform("xentium4"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Best == nil || len(res.History) == 0 {
		t.Fatal("no optimization history")
	}
}

func TestRuntimeHeaderAndDiagramCodec(t *testing.T) {
	hdr := RuntimeHeader()
	for _, want := range []string{"argo_wait", "argo_dma_in", "ARGO_LIN", "argo_release_at"} {
		if !strings.Contains(hdr, want) {
			t.Fatalf("runtime header missing %q", want)
		}
	}
	d := &Diagram{
		Name:    "roundtrip",
		Inputs:  []string{"x"},
		Blocks:  []Block{{Name: "g", Kind: "gain", Params: map[string]float64{"k": 2}}},
		Links:   []Link{{From: "x", To: "g", Port: 0}},
		Outputs: []string{"g"},
	}
	data, err := EncodeDiagram(d)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := DecodeDiagram(data)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Name != "roundtrip" {
		t.Fatal("codec")
	}
}

// TestSetInterpTreeWalker pins the process-wide engine switch that
// perfbench's -write-expected relies on: after SetInterp("tree"),
// Simulate runs on the tree walker, so the bytecode VM counters stay
// put, and reports exactly what the VM reports.
func TestSetInterpTreeWalker(t *testing.T) {
	uc := UseCaseByName("weaa")
	art, err := CompileUseCase(uc, Platform("leon3-2x2"))
	if err != nil {
		t.Fatal(err)
	}
	vmRep, err := Simulate(art, uc.Inputs(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := SetInterp("tree"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = SetInterp("vm") }) // "vm" is always valid
	c0, h0, m0 := sim.VMCounters()
	treeRep, err := Simulate(art, uc.Inputs(3))
	if err != nil {
		t.Fatal(err)
	}
	if c1, h1, m1 := sim.VMCounters(); c1 != c0 || h1 != h0 || m1 != m0 {
		t.Errorf("VM counters moved on the tree walker: compiles %d->%d hits %d->%d misses %d->%d",
			c0, c1, h0, h1, m0, m1)
	}
	if !reflect.DeepEqual(treeRep, vmRep) {
		t.Errorf("tree walker report differs from the VM's\n tree %+v\n vm   %+v", treeRep, vmRep)
	}
	if err := SetInterp("jit"); err == nil {
		t.Error(`SetInterp("jit") accepted`)
	}
	if err := SetInterp("vm"); err != nil {
		t.Fatal(err)
	}
	if _, err := Simulate(art, uc.Inputs(3)); err != nil {
		t.Fatal(err)
	}
	if _, h2, _ := sim.VMCounters(); h2 == h0 {
		t.Error(`Simulate after SetInterp("vm") did not run on the VM`)
	}
}
