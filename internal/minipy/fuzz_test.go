package minipy

import (
	"errors"
	"testing"
)

// fuzzFuel bounds every fuzzed program, so a generated infinite loop
// ends in ErrFuel instead of hanging the fuzzer.
const fuzzFuel = 10_000

// FuzzRun feeds arbitrary source to the interpreter under a step
// budget. Whatever the program, Run must return — a result within the
// budget, or a SyntaxError, a RuntimeError or ErrFuel — and never
// panic. Seeded with the unit tests' programs plus the checked-in
// corpus under testdata/fuzz.
func FuzzRun(f *testing.F) {
	for _, s := range []string{
		ApproxEProgram,
		"print(1 + 2 * 3)",
		"count = 0\nfor i in range(5):\n    for j in range(5):\n        if j > i:\n            break\n        count += 1\nprint(count)\n",
		"def sign(x):\n    if x > 0:\n        return 1\n    elif x < 0:\n        return -1\n    else:\n        return 0\nprint(sign(5), sign(-5), sign(0))\n",
		"while True:\n    pass\n",
		"d = {'a': 1}\nd['b'] = 2\nfor k in d:\n    print(k, d[k])\n",
		"print(join('-', split('a b c')))",
		"x = [1, 2]\nappend(x, 3)\nprint(x[2], len(x), 2 in x)",
		"def f(:\n    pass",
		"print('unterminated)",
		"print([1][5])",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		res, err := Run(src, fuzzFuel)
		if err == nil {
			if res.Steps > fuzzFuel {
				t.Fatalf("ran %d steps on a budget of %d", res.Steps, fuzzFuel)
			}
			return
		}
		var se *SyntaxError
		var re *RuntimeError
		if !errors.As(err, &se) && !errors.As(err, &re) && !errors.Is(err, ErrFuel) {
			t.Fatalf("untyped error %T: %v", err, err)
		}
	})
}
