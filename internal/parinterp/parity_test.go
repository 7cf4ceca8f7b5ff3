package parinterp_test

import (
	"testing"

	"finishrepair/internal/interp"
	"finishrepair/internal/lang/parser"
	"finishrepair/internal/lang/sem"
	"finishrepair/internal/parinterp"
)

// TestOperatorParityWithSerial pins the parallel interpreter to the
// serial one's operator semantics: on every program, the two runs
// print the same output or fail with the same error text. The serial
// interp is the definition; parinterp must not diverge from it, neither
// in values (a masked shift count) nor in the positioned runtime errors.
func TestOperatorParityWithSerial(t *testing.T) {
	cases := []struct{ name, body string }{
		{"shl-64", `var n int = 64; var x int = 1 << n; println(x);`},
		{"shl-negative", `var n int = -1; println(1 << n);`},
		{"shr-64", `var n int = 64; println(-8 >> n);`},
		{"shr-negative", `var n int = -3; println(8 >> n);`},
		{"shifts-in-range", `var n int = 63; println(1 << n, -8 >> 2, 5 << 0);`},
		{"div-zero", `var z int = 0; println(7 / z);`},
		{"rem-zero", `var z int = 0; println(7 % z);`},
		{"float-div-zero", `var z float = 0.0; println(1.0 / z, -1.0 / z);`},
		{"compound-div-zero-local", `var x int = 9; var z int = 0; x /= z; println(x);`},
		{"compound-div-zero-global", `g /= 0; println(g);`},
		{"compound-div-zero-element", `var a = make([]int, 2); a[1] = 4; a[1] /= 0; println(a[1]);`},
		{"compound-ok", `var x int = 9; x += 3; x -= 1; x *= 2; x /= 4; var y float = 1.5; y *= 2.0; y /= 4.0; println(x, y);`},
		{"arith", `println(7 / 2, -7 / 2, 7 % 3, -7 % 3, 6 & 3, 6 | 3, 6 ^ 3, 3 < 4, 2.5 >= 2.5, true != false);`},
		{"builtins", `println(sqrt(2.0), pow(2.0, 0.5), sin(1.0), cos(1.0), exp(1.0), log(2.0), floor(-9.5));
    println(abs(-3), abs(-1.5), int(2.9), int(-2.9), float(7), len(make([]int, 5)));`},
		{"builtins-edge", `println(sqrt(-1.0), log(0.0), int(7), float(2.5));`},
		{"len-nil", `var a []int; println(len(a));`},
		{"make-zero-value", `var a = make([]float, 2); var b = make([]bool, 1); var s string; println(a[0], b[0], s);`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			src := "var g int = 5;\nfunc main() {\n    " + c.body + "\n}\n"
			info := sem.MustCheck(parser.MustParse(src))
			seqOut, seqErr := serialRun(info)
			parOut, parErr := parallelRun(info)
			if seqErr != parErr {
				t.Errorf("errors differ:\nserial   %q\nparallel %q", seqErr, parErr)
			}
			if seqErr == "" && seqOut != parOut {
				t.Errorf("outputs differ:\nserial   %q\nparallel %q", seqOut, parOut)
			}
		})
	}
}

func serialRun(info *sem.Info) (string, string) {
	res, err := interp.Run(info, interp.Options{Mode: interp.Elide})
	if err != nil {
		return "", err.Error()
	}
	return res.Output, ""
}

func parallelRun(info *sem.Info) (string, string) {
	res, err := parinterp.Run(info, parinterp.Options{})
	if err != nil {
		return "", err.Error()
	}
	return res.Output, ""
}
