package minipy

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Value is a runtime value: nil (None), int64, float64, bool, string,
// *List, or *Function.
type Value interface{}

// List is a mutable list value.
type List struct{ Items []Value }

// Dict is a mutable mapping with insertion-ordered keys. Keys may be
// strings, ints, floats or bools (hashable values).
type Dict struct {
	keys  []Value
	vals  []Value
	index map[string]int
}

// dictKey encodes a hashable value as a map key, preserving Python's
// cross-type numeric equality (1 == 1.0 == True).
func dictKey(v Value) (string, error) {
	switch x := v.(type) {
	case string:
		return "s:" + x, nil
	case int64:
		return "n:" + strconv.FormatFloat(float64(x), 'g', -1, 64), nil
	case float64:
		return "n:" + strconv.FormatFloat(x, 'g', -1, 64), nil
	case bool:
		if x {
			return "n:1", nil
		}
		return "n:0", nil
	case nil:
		return "none", nil
	}
	return "", rte("unhashable type: %s", typeName(v))
}

// Set inserts or updates a key.
func (d *Dict) Set(k, v Value) error {
	ek, err := dictKey(k)
	if err != nil {
		return err
	}
	if d.index == nil {
		d.index = make(map[string]int)
	}
	if i, ok := d.index[ek]; ok {
		d.vals[i] = v
		return nil
	}
	d.index[ek] = len(d.keys)
	d.keys = append(d.keys, k)
	d.vals = append(d.vals, v)
	return nil
}

// Get looks a key up.
func (d *Dict) Get(k Value) (Value, bool, error) {
	ek, err := dictKey(k)
	if err != nil {
		return nil, false, err
	}
	i, ok := d.index[ek]
	if !ok {
		return nil, false, nil
	}
	return d.vals[i], true, nil
}

// Len reports entry count.
func (d *Dict) Len() int { return len(d.keys) }

// Function is a user-defined function.
type Function struct {
	Name   string
	Params []string
	Body   []Node
}

// ErrFuel is returned when a program exceeds its step budget.
var ErrFuel = errors.New("minipy: step budget exhausted")

// RuntimeError is a Python-level error (TypeError, NameError, ...).
type RuntimeError struct{ Msg string }

func (e *RuntimeError) Error() string { return "minipy: " + e.Msg }

func rte(format string, args ...interface{}) error {
	return &RuntimeError{Msg: fmt.Sprintf(format, args...)}
}

// control-flow signals.
type returnSignal struct{ val Value }
type breakSignal struct{}
type continueSignal struct{}

func (returnSignal) Error() string   { return "return outside function" }
func (breakSignal) Error() string    { return "break outside loop" }
func (continueSignal) Error() string { return "continue outside loop" }

// maxNest bounds every recursion a program controls: expression
// nesting in the parser and the evaluator (which also bounds
// user-function calls, each one an evaluation inside another), and the
// container nesting print and == walk into. Deeper programs fail with
// an error instead of overflowing the host's stack.
const maxNest = 10_000

// Interp executes a parsed program.
type Interp struct {
	globals map[string]Value
	out     strings.Builder
	fuel    int
	steps   int
	nest    int // expression evaluations in progress
}

// Result summarizes a program run.
type Result struct {
	Output string
	Steps  int
	// Globals exposes final top-level bindings (for tests and the
	// compute service's result extraction).
	Globals map[string]Value
}

// Run parses and executes src with the given step budget (0 means the
// default of 10 million steps).
func Run(src string, fuel int) (*Result, error) {
	prog, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if fuel <= 0 {
		fuel = 10_000_000
	}
	in := &Interp{globals: make(map[string]Value), fuel: fuel}
	if err := in.execBlock(prog, in.globals); err != nil {
		switch err.(type) {
		case returnSignal, breakSignal, continueSignal:
			return nil, rte("%s", err.Error())
		}
		return nil, err
	}
	return &Result{Output: in.out.String(), Steps: in.steps, Globals: in.globals}, nil
}

func (in *Interp) tick() error {
	in.steps++
	if in.steps > in.fuel {
		return ErrFuel
	}
	return nil
}

// charge bills size×count steps for building a value of that many
// elements (or bytes) in one operation — a range, a repetition, a
// concatenation, a join — so the step budget bounds the memory a
// program can build, not only its running time.
func (in *Interp) charge(size, count uint64) error {
	left := uint64(in.fuel - in.steps)
	if count != 0 && size > left/count {
		in.steps = in.fuel + 1
		return ErrFuel
	}
	in.steps += int(size * count)
	return nil
}

func (in *Interp) execBlock(stmts []Node, env map[string]Value) error {
	for _, s := range stmts {
		if err := in.exec(s, env); err != nil {
			return err
		}
	}
	return nil
}

func (in *Interp) exec(s Node, env map[string]Value) error {
	if err := in.tick(); err != nil {
		return err
	}
	switch st := s.(type) {
	case *Pass:
		return nil
	case *Break:
		return breakSignal{}
	case *Continue:
		return continueSignal{}
	case *Return:
		var v Value
		if st.Value != nil {
			var err error
			v, err = in.eval(st.Value, env)
			if err != nil {
				return err
			}
		}
		return returnSignal{val: v}
	case *ExprStmt:
		_, err := in.eval(st.X, env)
		return err
	case *FuncDef:
		env[st.Name] = &Function{Name: st.Name, Params: st.Params, Body: st.Body}
		return nil
	case *Assign:
		v, err := in.eval(st.Value, env)
		if err != nil {
			return err
		}
		if st.AugOp != "" {
			old, err := in.eval(st.Target, env)
			if err != nil {
				return err
			}
			v, err = in.binop(st.AugOp, old, v)
			if err != nil {
				return err
			}
		}
		return in.assign(st.Target, v, env)
	case *If:
		for i, cond := range st.Conds {
			cv, err := in.eval(cond, env)
			if err != nil {
				return err
			}
			if truthy(cv) {
				return in.execBlock(st.Blocks[i], env)
			}
		}
		return in.execBlock(st.Else, env)
	case *While:
		for {
			cv, err := in.eval(st.Cond, env)
			if err != nil {
				return err
			}
			if !truthy(cv) {
				return nil
			}
			err = in.execBlock(st.Body, env)
			switch err.(type) {
			case nil, continueSignal:
			case breakSignal:
				return nil
			default:
				return err
			}
			if err := in.tick(); err != nil {
				return err
			}
		}
	case *For:
		iter, err := in.eval(st.Iter, env)
		if err != nil {
			return err
		}
		items, err := iterate(iter)
		if err != nil {
			return err
		}
		for _, item := range items {
			env[st.Var] = item
			err := in.execBlock(st.Body, env)
			switch err.(type) {
			case nil, continueSignal:
			case breakSignal:
				return nil
			default:
				return err
			}
			if err := in.tick(); err != nil {
				return err
			}
		}
		return nil
	}
	return rte("unknown statement %T", s)
}

func (in *Interp) assign(target Node, v Value, env map[string]Value) error {
	switch t := target.(type) {
	case *NameRef:
		env[t.Name] = v
		return nil
	case *Index:
		cont, err := in.eval(t.Container, env)
		if err != nil {
			return err
		}
		idx, err := in.eval(t.Idx, env)
		if err != nil {
			return err
		}
		if d, ok := cont.(*Dict); ok {
			return d.Set(idx, v)
		}
		lst, ok := cont.(*List)
		if !ok {
			return rte("cannot index-assign into %s", typeName(cont))
		}
		i, ok := idx.(int64)
		if !ok {
			return rte("list index must be int, not %s", typeName(idx))
		}
		if i < 0 {
			i += int64(len(lst.Items))
		}
		if i < 0 || i >= int64(len(lst.Items)) {
			return rte("list index %d out of range", i)
		}
		lst.Items[i] = v
		return nil
	}
	return rte("bad assignment target %T", target)
}

// eval evaluates x one level deeper than its caller. Left-deep chains
// such as 1+1+...+1 build trees as deep as they are long, and a
// recursive function nests a call per level, so the evaluator bounds
// its own recursion.
func (in *Interp) eval(x Node, env map[string]Value) (Value, error) {
	if in.nest >= maxNest {
		return nil, rte("maximum recursion depth exceeded")
	}
	in.nest++
	v, err := in.evalNode(x, env)
	in.nest--
	return v, err
}

func (in *Interp) evalNode(x Node, env map[string]Value) (Value, error) {
	if err := in.tick(); err != nil {
		return nil, err
	}
	switch e := x.(type) {
	case *NumLit:
		if e.IsFloat {
			return e.Float, nil
		}
		return e.Int, nil
	case *StrLit:
		return e.Val, nil
	case *BoolLit:
		return e.Val, nil
	case *NoneLit:
		return nil, nil
	case *NameRef:
		if v, ok := env[e.Name]; ok {
			return v, nil
		}
		if v, ok := in.globals[e.Name]; ok {
			return v, nil
		}
		return nil, rte("name %q is not defined", e.Name)
	case *ListLit:
		l := &List{}
		for _, el := range e.Elems {
			v, err := in.eval(el, env)
			if err != nil {
				return nil, err
			}
			l.Items = append(l.Items, v)
		}
		return l, nil
	case *DictLit:
		d := &Dict{}
		for i := range e.Keys {
			k, err := in.eval(e.Keys[i], env)
			if err != nil {
				return nil, err
			}
			v, err := in.eval(e.Vals[i], env)
			if err != nil {
				return nil, err
			}
			if err := d.Set(k, v); err != nil {
				return nil, err
			}
		}
		return d, nil
	case *Index:
		cont, err := in.eval(e.Container, env)
		if err != nil {
			return nil, err
		}
		idx, err := in.eval(e.Idx, env)
		if err != nil {
			return nil, err
		}
		return index(cont, idx)
	case *UnaryOp:
		v, err := in.eval(e.X, env)
		if err != nil {
			return nil, err
		}
		switch e.Op {
		case "-":
			switch n := v.(type) {
			case int64:
				return -n, nil
			case float64:
				return -n, nil
			}
			return nil, rte("bad operand for unary -: %s", typeName(v))
		case "not":
			return !truthy(v), nil
		}
		return nil, rte("unknown unary op %q", e.Op)
	case *BinOp:
		// Short-circuit logic.
		if e.Op == "and" || e.Op == "or" {
			l, err := in.eval(e.L, env)
			if err != nil {
				return nil, err
			}
			if e.Op == "and" && !truthy(l) {
				return l, nil
			}
			if e.Op == "or" && truthy(l) {
				return l, nil
			}
			return in.eval(e.R, env)
		}
		l, err := in.eval(e.L, env)
		if err != nil {
			return nil, err
		}
		r, err := in.eval(e.R, env)
		if err != nil {
			return nil, err
		}
		return in.binop(e.Op, l, r)
	case *Call:
		args := make([]Value, len(e.Args))
		for i, a := range e.Args {
			v, err := in.eval(a, env)
			if err != nil {
				return nil, err
			}
			args[i] = v
		}
		return in.call(e.Fn, args, env)
	}
	return nil, rte("unknown expression %T", x)
}

func (in *Interp) call(name string, args []Value, env map[string]Value) (Value, error) {
	// User function?
	var fnv Value
	if v, ok := env[name]; ok {
		fnv = v
	} else if v, ok := in.globals[name]; ok {
		fnv = v
	}
	if fn, ok := fnv.(*Function); ok {
		if len(args) != len(fn.Params) {
			return nil, rte("%s() takes %d arguments, got %d", fn.Name, len(fn.Params), len(args))
		}
		local := make(map[string]Value, len(fn.Params))
		for i, p := range fn.Params {
			local[p] = args[i]
		}
		err := in.execBlock(fn.Body, local)
		if rs, ok := err.(returnSignal); ok {
			return rs.val, nil
		}
		if err != nil {
			return nil, err
		}
		return nil, nil
	}
	return in.builtin(name, args)
}

func (in *Interp) builtin(name string, args []Value) (Value, error) {
	switch name {
	case "print":
		for i, a := range args {
			if i > 0 {
				in.out.WriteByte(' ')
			}
			s, err := in.repr(a)
			if err != nil {
				return nil, err
			}
			in.out.WriteString(s)
		}
		in.out.WriteByte('\n')
		return nil, nil
	case "range":
		var start, stop, step int64 = 0, 0, 1
		switch len(args) {
		case 1:
			s, ok := args[0].(int64)
			if !ok {
				return nil, rte("range() needs int")
			}
			stop = s
		case 2, 3:
			a, ok1 := args[0].(int64)
			b, ok2 := args[1].(int64)
			if !ok1 || !ok2 {
				return nil, rte("range() needs ints")
			}
			start, stop = a, b
			if len(args) == 3 {
				c, ok := args[2].(int64)
				if !ok || c == 0 {
					return nil, rte("range() step must be a nonzero int")
				}
				step = c
			}
		default:
			return nil, rte("range() takes 1-3 arguments")
		}
		n := rangeLen(start, stop, step)
		if err := in.charge(n, 1); err != nil {
			return nil, err
		}
		l := &List{Items: make([]Value, n)}
		for k := range l.Items {
			// Wraps in the product but not in the sum: every element
			// lies between start and stop.
			l.Items[k] = start + int64(k)*step
		}
		return l, nil
	case "len":
		if len(args) != 1 {
			return nil, rte("len() takes 1 argument")
		}
		switch v := args[0].(type) {
		case *List:
			return int64(len(v.Items)), nil
		case *Dict:
			return int64(v.Len()), nil
		case string:
			return int64(len(v)), nil
		}
		return nil, rte("len() of %s", typeName(args[0]))
	case "abs":
		if len(args) != 1 {
			return nil, rte("abs() takes 1 argument")
		}
		switch v := args[0].(type) {
		case int64:
			if v < 0 {
				return -v, nil
			}
			return v, nil
		case float64:
			return math.Abs(v), nil
		}
		return nil, rte("abs() of %s", typeName(args[0]))
	case "min", "max":
		if len(args) == 0 {
			return nil, rte("%s() needs arguments", name)
		}
		items := args
		if len(args) == 1 {
			l, ok := args[0].(*List)
			if !ok || len(l.Items) == 0 {
				return nil, rte("%s() of non-list or empty list", name)
			}
			items = l.Items
		}
		best := items[0]
		for _, it := range items[1:] {
			cmp, err := compare(it, best)
			if err != nil {
				return nil, err
			}
			if (name == "min" && cmp < 0) || (name == "max" && cmp > 0) {
				best = it
			}
		}
		return best, nil
	case "sum":
		if len(args) != 1 {
			return nil, rte("sum() takes 1 argument")
		}
		l, ok := args[0].(*List)
		if !ok {
			return nil, rte("sum() of %s", typeName(args[0]))
		}
		var acc Value = int64(0)
		for _, it := range l.Items {
			v, err := in.binop("+", acc, it)
			if err != nil {
				return nil, err
			}
			acc = v
		}
		return acc, nil
	case "int":
		if len(args) != 1 {
			return nil, rte("int() takes 1 argument")
		}
		switch v := args[0].(type) {
		case int64:
			return v, nil
		case float64:
			return int64(v), nil
		case bool:
			if v {
				return int64(1), nil
			}
			return int64(0), nil
		case string:
			n, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
			if err != nil {
				return nil, rte("invalid literal for int(): %q", v)
			}
			return n, nil
		}
		return nil, rte("int() of %s", typeName(args[0]))
	case "float":
		if len(args) != 1 {
			return nil, rte("float() takes 1 argument")
		}
		switch v := args[0].(type) {
		case int64:
			return float64(v), nil
		case float64:
			return v, nil
		case string:
			f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
			if err != nil {
				return nil, rte("invalid literal for float(): %q", v)
			}
			return f, nil
		}
		return nil, rte("float() of %s", typeName(args[0]))
	case "str":
		if len(args) != 1 {
			return nil, rte("str() takes 1 argument")
		}
		return in.repr(args[0])
	case "keys":
		if len(args) != 1 {
			return nil, rte("keys() takes 1 argument")
		}
		d, ok := args[0].(*Dict)
		if !ok {
			return nil, rte("keys() of %s", typeName(args[0]))
		}
		return &List{Items: append([]Value(nil), d.keys...)}, nil
	case "values":
		if len(args) != 1 {
			return nil, rte("values() takes 1 argument")
		}
		d, ok := args[0].(*Dict)
		if !ok {
			return nil, rte("values() of %s", typeName(args[0]))
		}
		return &List{Items: append([]Value(nil), d.vals...)}, nil
	case "split":
		// split(s[, sep]) — whitespace split when sep is omitted.
		if len(args) < 1 || len(args) > 2 {
			return nil, rte("split() takes 1-2 arguments")
		}
		s, ok := args[0].(string)
		if !ok {
			return nil, rte("split() of %s", typeName(args[0]))
		}
		var parts []string
		if len(args) == 2 {
			sep, ok := args[1].(string)
			if !ok || sep == "" {
				return nil, rte("split() separator must be a non-empty string")
			}
			parts = strings.Split(s, sep)
		} else {
			parts = strings.Fields(s)
		}
		l := &List{}
		for _, p := range parts {
			l.Items = append(l.Items, p)
		}
		return l, nil
	case "join":
		// join(sep, list) — MicroPython-flavoured free function.
		if len(args) != 2 {
			return nil, rte("join() takes 2 arguments")
		}
		sep, ok := args[0].(string)
		if !ok {
			return nil, rte("join() separator must be a string")
		}
		l, ok := args[1].(*List)
		if !ok {
			return nil, rte("join() of %s", typeName(args[1]))
		}
		parts := make([]string, len(l.Items))
		size := uint64(len(sep)) * uint64(len(parts))
		for i, it := range l.Items {
			s, ok := it.(string)
			if !ok {
				return nil, rte("join() item %d is %s, not str", i, typeName(it))
			}
			parts[i] = s
			size += uint64(len(s))
		}
		if err := in.charge(size, 1); err != nil {
			return nil, err
		}
		return strings.Join(parts, sep), nil
	case "upper", "lower":
		if len(args) != 1 {
			return nil, rte("%s() takes 1 argument", name)
		}
		s, ok := args[0].(string)
		if !ok {
			return nil, rte("%s() of %s", name, typeName(args[0]))
		}
		if name == "upper" {
			return strings.ToUpper(s), nil
		}
		return strings.ToLower(s), nil
	case "find":
		// find(haystack, needle) → index or -1.
		if len(args) != 2 {
			return nil, rte("find() takes 2 arguments")
		}
		h, ok1 := args[0].(string)
		n, ok2 := args[1].(string)
		if !ok1 || !ok2 {
			return nil, rte("find() needs strings")
		}
		return int64(strings.Index(h, n)), nil
	case "strip":
		if len(args) != 1 {
			return nil, rte("strip() takes 1 argument")
		}
		s, ok := args[0].(string)
		if !ok {
			return nil, rte("strip() of %s", typeName(args[0]))
		}
		return strings.TrimSpace(s), nil
	case "sorted":
		if len(args) != 1 {
			return nil, rte("sorted() takes 1 argument")
		}
		l, ok := args[0].(*List)
		if !ok {
			return nil, rte("sorted() of %s", typeName(args[0]))
		}
		out := &List{Items: append([]Value(nil), l.Items...)}
		var sortErr error
		// Insertion sort: stable, no extra imports, fine at guest scale.
		for i := 1; i < len(out.Items); i++ {
			for j := i; j > 0; j-- {
				c, err := compare(out.Items[j], out.Items[j-1])
				if err != nil {
					sortErr = err
					break
				}
				if c >= 0 {
					break
				}
				out.Items[j], out.Items[j-1] = out.Items[j-1], out.Items[j]
			}
			if sortErr != nil {
				return nil, sortErr
			}
		}
		return out, nil
	case "append":
		// MicroPython-flavoured convenience: append(list, x).
		if len(args) != 2 {
			return nil, rte("append() takes 2 arguments")
		}
		l, ok := args[0].(*List)
		if !ok {
			return nil, rte("append() to %s", typeName(args[0]))
		}
		l.Items = append(l.Items, args[1])
		return nil, nil
	}
	return nil, rte("name %q is not defined", name)
}

// ---- helpers ----

func truthy(v Value) bool {
	switch x := v.(type) {
	case nil:
		return false
	case bool:
		return x
	case int64:
		return x != 0
	case float64:
		return x != 0
	case string:
		return x != ""
	case *List:
		return len(x.Items) > 0
	case *Dict:
		return x.Len() > 0
	}
	return true
}

func typeName(v Value) string {
	switch v.(type) {
	case nil:
		return "NoneType"
	case bool:
		return "bool"
	case int64:
		return "int"
	case float64:
		return "float"
	case string:
		return "str"
	case *List:
		return "list"
	case *Dict:
		return "dict"
	case *Function:
		return "function"
	}
	return fmt.Sprintf("%T", v)
}

// Repr formats a value the way print() does. A container inside
// itself renders as [...] or {...}, as in Python.
func Repr(v Value) string {
	w := reprWriter{limit: math.MaxInt}
	w.value(v, false)
	return w.b.String()
}

// repr is Repr under the step budget: the rendering is billed a step
// per byte like any other built string, so a list that holds another
// many times over (whose rendering doubles per level) fails with
// ErrFuel instead of exhausting memory.
func (in *Interp) repr(v Value) (string, error) {
	w := reprWriter{limit: in.fuel - in.steps}
	w.value(v, false)
	if w.err != nil {
		return "", w.err
	}
	if err := in.charge(uint64(w.b.Len()), 1); err != nil {
		return "", err
	}
	return w.b.String(), nil
}

// reprWriter renders values, giving up once past limit bytes.
type reprWriter struct {
	b     strings.Builder
	limit int
	open  map[Value]bool // containers being rendered
	err   error
}

func (w *reprWriter) write(s string) {
	if !w.done() {
		w.b.WriteString(s)
	}
}

func (w *reprWriter) done() bool { return w.err != nil || w.b.Len() > w.limit }

// enter opens container c for rendering. It reports false, having
// written cycle, if c is already open; and false with an error past
// maxNest.
func (w *reprWriter) enter(c Value, cycle string) bool {
	if w.open[c] {
		w.write(cycle)
		return false
	}
	if len(w.open) >= maxNest {
		w.err = rte("maximum recursion depth exceeded in repr")
		return false
	}
	if w.open == nil {
		w.open = make(map[Value]bool)
	}
	w.open[c] = true
	return true
}

// value writes v; quote marks a string shown inside a container.
func (w *reprWriter) value(v Value, quote bool) {
	switch x := v.(type) {
	case nil:
		w.write("None")
	case bool:
		if x {
			w.write("True")
		} else {
			w.write("False")
		}
	case int64:
		w.write(strconv.FormatInt(x, 10))
	case float64:
		s := strconv.FormatFloat(x, 'g', -1, 64)
		if !strings.ContainsAny(s, ".eE") {
			s += ".0"
		}
		w.write(s)
	case string:
		if quote {
			w.write("'")
			w.write(x)
			w.write("'")
		} else {
			w.write(x)
		}
	case *List:
		if !w.enter(x, "[...]") {
			return
		}
		w.write("[")
		for i, it := range x.Items {
			if i > 0 {
				w.write(", ")
			}
			if w.done() {
				break
			}
			w.value(it, true)
		}
		w.write("]")
		delete(w.open, x)
	case *Dict:
		if !w.enter(x, "{...}") {
			return
		}
		w.write("{")
		for i := range x.keys {
			if i > 0 {
				w.write(", ")
			}
			if w.done() {
				break
			}
			w.value(x.keys[i], true)
			w.write(": ")
			w.value(x.vals[i], true)
		}
		w.write("}")
		delete(w.open, x)
	case *Function:
		w.write("<function " + x.Name + ">")
	default:
		w.write(fmt.Sprint(v))
	}
}

func iterate(v Value) ([]Value, error) {
	switch x := v.(type) {
	case *List:
		return x.Items, nil
	case *Dict:
		return append([]Value(nil), x.keys...), nil
	case string:
		out := make([]Value, 0, len(x))
		for _, r := range x {
			out = append(out, string(r))
		}
		return out, nil
	}
	return nil, rte("%s object is not iterable", typeName(v))
}

func index(cont, idx Value) (Value, error) {
	if d, ok := cont.(*Dict); ok {
		v, found, err := d.Get(idx)
		if err != nil {
			return nil, err
		}
		if !found {
			return nil, rte("KeyError: %s", Repr(idx))
		}
		return v, nil
	}
	i, ok := idx.(int64)
	if !ok {
		return nil, rte("indices must be int, not %s", typeName(idx))
	}
	switch c := cont.(type) {
	case *List:
		if i < 0 {
			i += int64(len(c.Items))
		}
		if i < 0 || i >= int64(len(c.Items)) {
			return nil, rte("list index %d out of range", i)
		}
		return c.Items[i], nil
	case string:
		if i < 0 {
			i += int64(len(c))
		}
		if i < 0 || i >= int64(len(c)) {
			return nil, rte("string index %d out of range", i)
		}
		return string(c[i]), nil
	}
	return nil, rte("%s object is not subscriptable", typeName(cont))
}

func compare(a, b Value) (int, error) {
	af, aok := toFloat(a)
	bf, bok := toFloat(b)
	if aok && bok {
		switch {
		case af < bf:
			return -1, nil
		case af > bf:
			return 1, nil
		}
		return 0, nil
	}
	as, aok2 := a.(string)
	bs, bok2 := b.(string)
	if aok2 && bok2 {
		return strings.Compare(as, bs), nil
	}
	return 0, rte("cannot compare %s and %s", typeName(a), typeName(b))
}

func toFloat(v Value) (float64, bool) {
	switch x := v.(type) {
	case int64:
		return float64(x), true
	case float64:
		return x, true
	case bool:
		if x {
			return 1, true
		}
		return 0, true
	}
	return 0, false
}

func (in *Interp) binop(op string, l, r Value) (Value, error) {
	switch op {
	case "in":
		switch c := r.(type) {
		case *Dict:
			_, found, err := c.Get(l)
			return found, err
		case *List:
			for _, it := range c.Items {
				eq, err := equals(l, it)
				if err == nil && eq {
					return true, nil
				}
			}
			return false, nil
		case string:
			ls, ok := l.(string)
			if !ok {
				return nil, rte("'in <string>' requires string, not %s", typeName(l))
			}
			return strings.Contains(c, ls), nil
		}
		return nil, rte("%s is not a container", typeName(r))
	case "==", "!=":
		eq, err := equals(l, r)
		if err != nil {
			return nil, err
		}
		if op == "!=" {
			return !eq, nil
		}
		return eq, nil
	case "<", "<=", ">", ">=":
		c, err := compare(l, r)
		if err != nil {
			return nil, err
		}
		switch op {
		case "<":
			return c < 0, nil
		case "<=":
			return c <= 0, nil
		case ">":
			return c > 0, nil
		default:
			return c >= 0, nil
		}
	case "+":
		if ls, ok := l.(string); ok {
			if rs, ok := r.(string); ok {
				if err := in.charge(uint64(len(ls)+len(rs)), 1); err != nil {
					return nil, err
				}
				return ls + rs, nil
			}
			return nil, rte("cannot concatenate str and %s", typeName(r))
		}
		if ll, ok := l.(*List); ok {
			if rl, ok := r.(*List); ok {
				if err := in.charge(uint64(len(ll.Items)+len(rl.Items)), 1); err != nil {
					return nil, err
				}
				out := &List{Items: append(append([]Value{}, ll.Items...), rl.Items...)}
				return out, nil
			}
			return nil, rte("cannot concatenate list and %s", typeName(r))
		}
	case "*":
		if ls, ok := l.(string); ok {
			if ri, ok := r.(int64); ok {
				if ri <= 0 {
					return "", nil // as in Python: 'ab' * -1 == ''
				}
				if err := in.charge(uint64(len(ls)), uint64(ri)); err != nil {
					return nil, err
				}
				return strings.Repeat(ls, int(ri)), nil
			}
		}
	}
	// Numeric paths.
	li, lIsInt := l.(int64)
	ri, rIsInt := r.(int64)
	if lIsInt && rIsInt {
		switch op {
		case "+":
			return li + ri, nil
		case "-":
			return li - ri, nil
		case "*":
			return li * ri, nil
		case "/":
			if ri == 0 {
				return nil, rte("division by zero")
			}
			return float64(li) / float64(ri), nil // true division
		case "//":
			if ri == 0 {
				return nil, rte("division by zero")
			}
			return floorDivInt(li, ri), nil
		case "%":
			if ri == 0 {
				return nil, rte("modulo by zero")
			}
			m := li % ri
			if m != 0 && (m < 0) != (ri < 0) {
				m += ri
			}
			return m, nil
		case "**":
			if ri >= 0 {
				return intPow(li, ri), nil
			}
			return math.Pow(float64(li), float64(ri)), nil
		}
	}
	lf, lok := toFloat(l)
	rf, rok := toFloat(r)
	if lok && rok {
		switch op {
		case "+":
			return lf + rf, nil
		case "-":
			return lf - rf, nil
		case "*":
			return lf * rf, nil
		case "/":
			if rf == 0 {
				return nil, rte("division by zero")
			}
			return lf / rf, nil
		case "//":
			if rf == 0 {
				return nil, rte("division by zero")
			}
			return math.Floor(lf / rf), nil
		case "%":
			if rf == 0 {
				return nil, rte("modulo by zero")
			}
			m := math.Mod(lf, rf)
			if m != 0 && (m < 0) != (rf < 0) {
				m += rf
			}
			return m, nil
		case "**":
			return math.Pow(lf, rf), nil
		}
	}
	return nil, rte("unsupported operand types for %s: %s and %s", op, typeName(l), typeName(r))
}

func equals(l, r Value) (bool, error) { return equalsAt(l, r, 0) }

// equalsAt is equals for values nested depth lists deep. A list equals
// itself without a walk, as in Python, so a list holding itself
// compares equal to itself; two distinct self-holding lists hit the
// depth bound instead of recursing forever.
func equalsAt(l, r Value, depth int) (bool, error) {
	lf, lok := toFloat(l)
	rf, rok := toFloat(r)
	if lok && rok {
		return lf == rf, nil
	}
	if ls, ok := l.(string); ok {
		rs, ok2 := r.(string)
		return ok2 && ls == rs, nil
	}
	if l == nil || r == nil {
		return l == nil && r == nil, nil
	}
	if ll, ok := l.(*List); ok {
		rl, ok2 := r.(*List)
		if !ok2 || len(ll.Items) != len(rl.Items) {
			return false, nil
		}
		if ll == rl {
			return true, nil
		}
		if depth >= maxNest {
			return false, rte("maximum recursion depth exceeded in comparison")
		}
		for i := range ll.Items {
			eq, err := equalsAt(ll.Items[i], rl.Items[i], depth+1)
			if err != nil || !eq {
				return eq, err
			}
		}
		return true, nil
	}
	return false, nil
}

// rangeLen is the number of elements range(start, stop, step) yields,
// computed without overflow for any int64 bounds (step != 0).
func rangeLen(start, stop, step int64) uint64 {
	switch {
	case step > 0 && start < stop:
		return (uint64(stop)-uint64(start)-1)/uint64(step) + 1
	case step < 0 && start > stop:
		return (uint64(start)-uint64(stop)-1)/(-uint64(step)) + 1
	}
	return 0
}

func floorDivInt(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return q
}

func intPow(base, exp int64) int64 {
	var out int64 = 1
	for exp > 0 {
		if exp&1 == 1 {
			out *= base
		}
		base *= base
		exp >>= 1
	}
	return out
}

// ApproxEProgram is the §7.4 compute-service payload: "All compute
// services calculated an approximation of e".
const ApproxEProgram = `
def approx_e(n):
    e = 1.0
    term = 1.0
    for k in range(1, n + 1):
        term = term / k
        e = e + term
    return e

result = approx_e(20)
print(result)
`
