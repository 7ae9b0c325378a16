package vm_test

import (
	"math"
	"math/rand"
	"testing"

	"argo/internal/ir"
	"argo/internal/ir/vm"
	"argo/internal/scil"
	"argo/internal/usecases"
)

// fuzzFuel bounds execution in both engines so adversarial loop nests
// stay cheap; exhaustion itself is a differential outcome (both engines
// must run out at the same statement with the same meter prefix).
const fuzzFuel = 100_000

// streamSeeds reach the compiler's peephole shapes on both streams:
// compare-and-branch over NaN, ±Inf and −0 operands, one-instruction
// loop entries, and quiet-source (checked) stores whose subscripts fail.
// For x > 0, sqrt(-x) is NaN, x / 0 is +Inf and -(x * 0) is −0. The
// front end folds loop bounds to constants and rejects a zero step, so
// TestVMDirectIR covers the zero step.
var streamSeeds = []string{
	`function r = f(x, y)
  n = sqrt(-x)
  p = x / 0
  z = -(x * 0)
  r = 0
  if n == n & p ~= z & z < y & y <= p & p > n & z >= 0 then
    r = r + 1
  end
  if x == y & n ~= p then
    r = r + 2
  else
    r = r - 2
  end
  if z == 0 & z <= x & p >= y & n < p & y > z & x ~= n then
    r = r + 4
  end
  if p < y | n >= z then
    r = r + 8
  end
endfunction`,
	`function r = f(x)
  r = 0
  for i = 10:-2.5:1
    r = r + i * x
  end
  for j = 0.5:0.25:2
    r = r - j
  end
  for k = 3:-1:1
    for m = 1:3
      if m >= x & m <= k & k < 3 then
        r = r + m
      end
    end
  end
  for e = 5:1
    r = r + 100
  end
endfunction`,
	`function r = f(x, y)
  a = zeros(2, 3)
  a(1, x / 3 * 3) = sqrt(y)
  a(x + 1e-10) = x * y
  a(y, x) = max(x, y) - 1
  a(x + 0.25) = -y
  r = a(1, 1) + a(2, 3)
endfunction`,
}

// FuzzVMExec is the differential fuzzer for the bytecode VM: any source
// the front end accepts is lowered and executed through both the tree
// walker (the oracle) and the compiled VM, which must agree exactly on
// results (bit-for-bit), error strings, and the complete meter event
// sequence. It extends the FuzzParseSCIL corpus — anything the parser
// fuzzer finds interesting is a candidate execution here.
//
// Run the full fuzzer with: go test -fuzz=FuzzVMExec ./internal/ir/vm
func FuzzVMExec(f *testing.F) {
	seeds := []string{
		"function r = f(a)\n  r = a\nendfunction",
		"function r = f(x)\n  r = 0\n  for i = 1:20\n    r = r + i * x\n  end\nendfunction",
		"//@entry\nfunction r = h(x)\n  //@bound 64\n  while x > 1\n    x = x / 2\n  end\n  r = x\nendfunction",
		"function r = f(m)\n  r = 0\n  for i = 1:2\n    for j = 1:2\n      r = r + m(i, j)\n    end\n  end\nendfunction",
		"function q = g(m)\n  q = m(5)\nendfunction", // runtime index error on a 2x2 argument
		"function r = f(a, b)\n  if a > b then\n    r = max(a, b)\n  else\n    r = atan(a, b)\n  end\nendfunction",
		"function r = f(x)\n  r = x / 0 + sqrt(-x)\nendfunction", // inf/nan propagation
	}
	seeds = append(seeds, streamSeeds...)
	for _, u := range usecases.All() {
		seeds = append(seeds, u.Source)
	}
	for s := int64(0); s < 6; s++ {
		seeds = append(seeds, scil.GenerateSource(rand.New(rand.NewSource(s)), scil.DefaultGenConfig()))
	}
	for i, s := range seeds {
		f.Add(s, int64(i))
	}
	f.Fuzz(func(t *testing.T, src string, seed int64) {
		p, err := scil.Parse(src)
		if err != nil {
			return
		}
		if errs := scil.Check(p, scil.CheckWCET); len(errs) > 0 {
			return
		}
		for _, fn := range p.Funcs {
			// Two argument shapes per entry: all scalars and all 2x2
			// matrices. Lowering rejects the shape/usage mismatches;
			// whatever it accepts must execute identically.
			for shape := 0; shape < 2; shape++ {
				specs := make([]ir.ArgSpec, len(fn.Params))
				for i := range specs {
					if shape == 0 {
						specs[i] = ir.ScalarArg()
					} else {
						specs[i] = ir.MatrixArg(2, 2)
					}
				}
				prog, err := ir.Lower(p, fn.Name, specs)
				if err != nil {
					continue
				}
				cp, err := vm.Compile(prog)
				if err != nil {
					t.Fatalf("%s/%d: vm compile failed on lowered program: %v\n%s", fn.Name, shape, err, src)
				}
				rng := rand.New(rand.NewSource(seed))
				inputs := make([][]float64, len(specs))
				for i, sp := range specs {
					vals := make([]float64, sp.Rows*sp.Cols)
					for j := range vals {
						vals[j] = math.Round(rng.Float64()*40-20) / 2
					}
					inputs[i] = vals
				}
				diffExec(t, prog, cp, inputs, src)
			}
		}
	})
}

// diffExec runs one (program, inputs) pair through both engines under
// the fuzz fuel budget, metered and unmetered, and reports any
// observable divergence.
func diffExec(t *testing.T, prog *ir.Program, cp *vm.Program, inputs [][]float64, src string) {
	t.Helper()
	for _, s := range streams {
		sameOutcome(t, s.name+"\n"+src,
			runTree(prog, inputs, s.metered, fuzzFuel), runVM(cp, inputs, s.metered, fuzzFuel))
	}
}
