package scil

import (
	"fmt"
	"math"
)

// Builtin describes one intrinsic function of the scil subset.
type Builtin struct {
	Name string
	// MinArgs/MaxArgs bound the accepted argument count.
	MinArgs, MaxArgs int
	// Eval computes the result.
	Eval func(args []Value) (Value, error)
	// Scalar1 / Scalar2, when non-nil, compute the same result as Eval
	// for all-scalar arguments without boxing them into Values — the
	// allocation-free fast path Call takes. They are exact aliases of
	// Eval restricted to scalars, never a different function.
	Scalar1 func(a float64) float64
	Scalar2 func(a, b float64) float64
	// Cost is the abstract operation cost used by the WCET cost model,
	// in "ALU-op" units (the ADL core model scales these to cycles).
	Cost int
}

// Call applies b to scalar arguments: Scalar1 or Scalar2 when set for
// that many arguments, else the boxed Eval, whose result it unboxes with
// ScalarVal. Lowering's constant folding, transform.FoldConstants,
// ir.Exec and the exact WCET engine call builtins through it, and the
// VM's intrinsic opcodes make the same choice at compile time, so all of
// them agree bit for bit.
func (b *Builtin) Call(args []float64) (float64, error) {
	switch {
	case len(args) == 1 && b.Scalar1 != nil:
		return b.Scalar1(args[0]), nil
	case len(args) == 2 && b.Scalar2 != nil:
		return b.Scalar2(args[0], args[1]), nil
	}
	vals := make([]Value, len(args))
	for i, a := range args {
		vals[i] = Scalar(a)
	}
	v, err := b.Eval(vals)
	if err != nil {
		return 0, err
	}
	return v.ScalarVal(), nil
}

func unary(name string, cost int, f func(float64) float64) *Builtin {
	return &Builtin{
		Name: name, MinArgs: 1, MaxArgs: 1, Cost: cost,
		Eval: func(args []Value) (Value, error) {
			v := args[0]
			out := v.Clone()
			for i := range out.Data {
				out.Data[i] = f(v.Data[i])
			}
			return out, nil
		},
		Scalar1: f,
	}
}

func binaryScalar(name string, cost int, f func(a, b float64) float64) *Builtin {
	return &Builtin{
		Name: name, MinArgs: 2, MaxArgs: 2, Cost: cost,
		Eval: func(args []Value) (Value, error) {
			return elementwise(args[0], args[1], f)
		},
		Scalar2: f,
	}
}

func reduce(name string, cost int, init float64, f func(acc, x float64) float64, post func(acc float64, n int) float64) *Builtin {
	return &Builtin{
		Name: name, MinArgs: 1, MaxArgs: 1, Cost: cost,
		Eval: func(args []Value) (Value, error) {
			v := args[0]
			if v.Len() == 0 {
				return Scalar(init), nil
			}
			acc := init
			for _, x := range v.Data {
				acc = f(acc, x)
			}
			if post != nil {
				acc = post(acc, v.Len())
			}
			return Scalar(acc), nil
		},
	}
}

func dimArgs(args []Value) (int, int, error) {
	get := func(v Value) (int, error) {
		if !v.IsScalar && v.Len() != 1 {
			return 0, fmt.Errorf("dimension argument must be scalar")
		}
		n := int(v.ScalarVal())
		if n < 0 || float64(n) != v.ScalarVal() {
			return 0, fmt.Errorf("dimension argument must be a non-negative integer, got %g", v.ScalarVal())
		}
		return n, nil
	}
	r, err := get(args[0])
	if err != nil {
		return 0, 0, err
	}
	c := r
	if len(args) == 2 {
		c, err = get(args[1])
		if err != nil {
			return 0, 0, err
		}
	}
	return r, c, nil
}

// builtins is the intrinsic function table of the subset.
var builtins = map[string]*Builtin{}

func register(b *Builtin) { builtins[b.Name] = b }

func init() {
	register(&Builtin{
		Name: "zeros", MinArgs: 1, MaxArgs: 2, Cost: 1,
		Eval: func(args []Value) (Value, error) {
			r, c, err := dimArgs(args)
			if err != nil {
				return Value{}, err
			}
			return NewMatrix(r, c), nil
		},
	})
	register(&Builtin{
		Name: "ones", MinArgs: 1, MaxArgs: 2, Cost: 1,
		Eval: func(args []Value) (Value, error) {
			r, c, err := dimArgs(args)
			if err != nil {
				return Value{}, err
			}
			v := NewMatrix(r, c)
			for i := range v.Data {
				v.Data[i] = 1
			}
			return v, nil
		},
	})
	register(&Builtin{
		Name: "eye", MinArgs: 1, MaxArgs: 2, Cost: 1,
		Eval: func(args []Value) (Value, error) {
			r, c, err := dimArgs(args)
			if err != nil {
				return Value{}, err
			}
			v := NewMatrix(r, c)
			for i := 1; i <= r && i <= c; i++ {
				v.Set(i, i, 1)
			}
			return v, nil
		},
	})
	register(&Builtin{
		Name: "size", MinArgs: 1, MaxArgs: 2, Cost: 1,
		Eval: func(args []Value) (Value, error) {
			v := args[0]
			if len(args) == 1 {
				return MatrixOf(1, 2, []float64{float64(v.Rows), float64(v.Cols)}), nil
			}
			switch int(args[1].ScalarVal()) {
			case 1:
				return Scalar(float64(v.Rows)), nil
			case 2:
				return Scalar(float64(v.Cols)), nil
			}
			return Value{}, fmt.Errorf("size: dimension must be 1 or 2")
		},
	})
	register(&Builtin{
		Name: "length", MinArgs: 1, MaxArgs: 1, Cost: 1,
		Eval: func(args []Value) (Value, error) {
			return Scalar(float64(args[0].Len())), nil
		},
	})

	register(unary("abs", 1, math.Abs))
	register(unary("sqrt", 8, math.Sqrt))
	register(unary("floor", 1, math.Floor))
	register(unary("ceil", 1, math.Ceil))
	register(unary("round", 1, math.Round))
	register(unary("sign", 1, func(x float64) float64 {
		switch {
		case x > 0:
			return 1
		case x < 0:
			return -1
		}
		return 0
	}))
	register(unary("sin", 16, math.Sin))
	register(unary("cos", 16, math.Cos))
	register(unary("tan", 20, math.Tan))
	register(unary("exp", 16, math.Exp))
	register(unary("log", 16, math.Log))

	register(binaryScalar("min", 1, math.Min))
	register(binaryScalar("max", 1, math.Max))
	register(binaryScalar("modulo", 4, math.Mod))
	register(binaryScalar("atan2", 24, math.Atan2))
	register(&Builtin{
		Name: "atan", MinArgs: 1, MaxArgs: 2, Cost: 24,
		Eval: func(args []Value) (Value, error) {
			if len(args) == 2 {
				return elementwise(args[0], args[1], math.Atan2)
			}
			v := args[0].Clone()
			for i := range v.Data {
				v.Data[i] = math.Atan(v.Data[i])
			}
			return v, nil
		},
		Scalar1: math.Atan,
		Scalar2: math.Atan2,
	})

	register(reduce("sum", 1, 0, func(a, x float64) float64 { return a + x }, nil))
	register(reduce("prod", 1, 1, func(a, x float64) float64 { return a * x }, nil))
	register(reduce("mean", 1, 0, func(a, x float64) float64 { return a + x },
		func(a float64, n int) float64 { return a / float64(n) }))
	register(&Builtin{
		Name: "minval", MinArgs: 1, MaxArgs: 1, Cost: 1,
		Eval: func(args []Value) (Value, error) {
			v := args[0]
			if v.Len() == 0 {
				return Value{}, fmt.Errorf("minval of empty matrix")
			}
			m := v.Data[0]
			for _, x := range v.Data {
				m = math.Min(m, x)
			}
			return Scalar(m), nil
		},
	})
	register(&Builtin{
		Name: "maxval", MinArgs: 1, MaxArgs: 1, Cost: 1,
		Eval: func(args []Value) (Value, error) {
			v := args[0]
			if v.Len() == 0 {
				return Value{}, fmt.Errorf("maxval of empty matrix")
			}
			m := v.Data[0]
			for _, x := range v.Data {
				m = math.Max(m, x)
			}
			return Scalar(m), nil
		},
	})
}

// LookupBuiltin returns the builtin named name, or nil.
func LookupBuiltin(name string) *Builtin { return builtins[name] }

// BuiltinNames lists all registered builtin names (for docs and tests).
func BuiltinNames() []string {
	out := make([]string, 0, len(builtins))
	for n := range builtins {
		out = append(out, n)
	}
	return out
}
