package engine

import (
	"errors"
	"fmt"
)

// Vectorized expression evaluation over chunks. evalVec is the engine's
// only expression evaluator: it computes an expression once per chunk (or
// once per selection of a chunk's rows) instead of once per row. Column
// references alias the input column (zero copies), arithmetic and
// comparisons run as tight loops over flat []int64 with word-wise null
// propagation, and UDF calls loop over the rows with a reused argument
// buffer, so even they allocate per chunk, not per row.
//
// Evaluation is fallible: a malformed plan (an unknown operator smuggled
// into a BinExpr, an Expr implementation the evaluator does not know)
// surfaces as a returned ErrUnsupportedExpr that fails its query, never as
// a process-killing panic.

// colVec is one evaluated expression column: values plus an optional null
// bitmap (nil = no NULLs), the same layout as a chunk column.
type colVec struct {
	vals  []int64
	nulls nullBitmap
}

// null reports whether row i of the vector is NULL.
func (v colVec) null(i int) bool { return v.nulls.get(i) }

// datum materialises row i as a Datum.
func (v colVec) datum(i int) Datum {
	if v.nulls.get(i) {
		return NullDatum
	}
	return Datum{Int: v.vals[i]}
}

// setNull marks row i NULL, allocating the bitmap lazily.
func (v *colVec) setNull(i, n int) {
	if v.nulls == nil {
		v.nulls = newNullBitmap(n)
	}
	v.nulls.set(i)
}

// orNulls unions two null bitmaps (NULL if either side is NULL) sized for
// n rows; nil in, nil out when both sides are all-valid.
func orNulls(a, b nullBitmap, n int) nullBitmap {
	if a == nil && b == nil {
		return nil
	}
	out := newNullBitmap(n)
	for i := range out {
		var w uint64
		if i < len(a) {
			w |= a[i]
		}
		if i < len(b) {
			w |= b[i]
		}
		out[i] = w
	}
	return out
}

// ErrUnsupportedExpr reports an expression the evaluator cannot compute:
// an Expr implementation it does not know (such as a prepared-statement
// placeholder that escaped substitution) or an unknown binary operator.
var ErrUnsupportedExpr = errors.New("engine: unsupported expression")

// evalVec evaluates e over the rows of ch that sel selects, producing a
// dense vector: output row i is input row sel[i]. A nil sel selects every
// row, and column references then alias the input column with zero
// copies. A non-nil sel, even an empty one, selects exactly its rows in
// sel order — the fused pipeline (execFused) evaluates outer filters and
// projections over the surviving rows this way instead of gathering them
// into an intermediate chunk first.
func evalVec(e Expr, ch *Chunk, sel []int32) (colVec, error) {
	n := ch.length
	if sel != nil {
		n = len(sel)
	}
	switch e := e.(type) {
	case ColRef:
		src, nb := ch.cols[e.Idx], ch.nulls[e.Idx]
		if sel == nil {
			return colVec{vals: src, nulls: nb}, nil
		}
		vals := make([]int64, n)
		return colVec{vals: vals, nulls: gatherCol(vals, src, nb, sel)}, nil

	case ConstExpr:
		vals := make([]int64, n)
		if e.Val.Null {
			nb := newNullBitmap(n)
			for i := range nb {
				nb[i] = ^uint64(0)
			}
			return colVec{vals: vals, nulls: nb}, nil
		}
		if e.Val.Int != 0 {
			for i := range vals {
				vals[i] = e.Val.Int
			}
		}
		return colVec{vals: vals}, nil

	case BinExpr:
		l, err := evalVec(e.Left, ch, sel)
		if err != nil {
			return colVec{}, err
		}
		r, err := evalVec(e.Right, ch, sel)
		if err != nil {
			return colVec{}, err
		}
		return combineBinVec(e.Op, l, r, n)

	case IsNullExpr:
		arg, err := evalVec(e.Arg, ch, sel)
		if err != nil {
			return colVec{}, err
		}
		out := colVec{vals: make([]int64, n)}
		for i := 0; i < n; i++ {
			isNull := arg.null(i)
			if e.Negate {
				isNull = !isNull
			}
			if isNull {
				out.vals[i] = 1
			}
		}
		return out, nil

	case CoalesceExpr:
		args, err := evalArgVecs(e.Args, ch, sel)
		if err != nil {
			return colVec{}, err
		}
		out := colVec{vals: make([]int64, n)}
		for i := 0; i < n; i++ {
			hit := false
			for _, a := range args {
				if !a.null(i) {
					out.vals[i] = a.vals[i]
					hit = true
					break
				}
			}
			if !hit {
				out.setNull(i, n)
			}
		}
		return out, nil

	case LeastExpr:
		// NULL arguments are ignored; the result is NULL only if every
		// argument is NULL (PostgreSQL least semantics).
		args, err := evalArgVecs(e.Args, ch, sel)
		if err != nil {
			return colVec{}, err
		}
		out := colVec{vals: make([]int64, n)}
		for i := 0; i < n; i++ {
			hit := false
			var best int64
			for _, a := range args {
				if a.null(i) {
					continue
				}
				if v := a.vals[i]; !hit || v < best {
					best, hit = v, true
				}
			}
			if hit {
				out.vals[i] = best
			} else {
				out.setNull(i, n)
			}
		}
		return out, nil

	case UDFExpr:
		args, err := evalArgVecs(e.Args, ch, sel)
		if err != nil {
			return colVec{}, err
		}
		argBuf := make([]Datum, len(args))
		out := colVec{vals: make([]int64, n)}
		for i := 0; i < n; i++ {
			for j := range args {
				argBuf[j] = args[j].datum(i)
			}
			d := e.Fn(argBuf)
			if d.Null {
				out.setNull(i, n)
			} else {
				out.vals[i] = d.Int
			}
		}
		return out, nil
	}
	return colVec{}, fmt.Errorf("%w: %T", ErrUnsupportedExpr, e)
}

// evalArgVecs evaluates an argument list over the same selection.
func evalArgVecs(args []Expr, ch *Chunk, sel []int32) ([]colVec, error) {
	out := make([]colVec, len(args))
	for i, a := range args {
		v, err := evalVec(a, ch, sel)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// EvalConst evaluates an expression that references no column — a VALUES
// item or a FROM-less SELECT item — over a one-row, zero-column chunk. A
// panicking UDF fails the evaluation with an error.
func EvalConst(e Expr) (d Datum, err error) {
	defer recoverToError("constant evaluation", &err)
	v, err := evalVec(e, &Chunk{length: 1}, nil)
	if err != nil {
		return NullDatum, err
	}
	return v.datum(0), nil
}

// combineBinVec combines two evaluated operand vectors of length n under a
// binary operator. Comparisons and arithmetic propagate NULL by bitmap
// union; AND/OR run a scalar loop for SQL's three-valued logic.
func combineBinVec(op BinOp, l, r colVec, n int) (colVec, error) {
	out := colVec{vals: make([]int64, n)}

	switch op {
	case OpAnd:
		for i := 0; i < n; i++ {
			ln, rn := l.null(i), r.null(i)
			switch {
			case !ln && l.vals[i] == 0 || !rn && r.vals[i] == 0:
				// false AND anything = false
			case ln || rn:
				out.setNull(i, n)
			default:
				out.vals[i] = 1
			}
		}
		return out, nil
	case OpOr:
		for i := 0; i < n; i++ {
			ln, rn := l.null(i), r.null(i)
			switch {
			case !ln && l.vals[i] != 0 || !rn && r.vals[i] != 0:
				out.vals[i] = 1
			case ln || rn:
				out.setNull(i, n)
			}
		}
		return out, nil
	}

	out.nulls = orNulls(l.nulls, r.nulls, n)
	lv, rv, ov := l.vals, r.vals, out.vals
	switch op {
	case OpAdd:
		for i := 0; i < n; i++ {
			ov[i] = lv[i] + rv[i]
		}
	case OpSub:
		for i := 0; i < n; i++ {
			ov[i] = lv[i] - rv[i]
		}
	case OpEq:
		for i := 0; i < n; i++ {
			if lv[i] == rv[i] {
				ov[i] = 1
			}
		}
	case OpNe:
		for i := 0; i < n; i++ {
			if lv[i] != rv[i] {
				ov[i] = 1
			}
		}
	case OpLt:
		for i := 0; i < n; i++ {
			if lv[i] < rv[i] {
				ov[i] = 1
			}
		}
	case OpLe:
		for i := 0; i < n; i++ {
			if lv[i] <= rv[i] {
				ov[i] = 1
			}
		}
	case OpGt:
		for i := 0; i < n; i++ {
			if lv[i] > rv[i] {
				ov[i] = 1
			}
		}
	case OpGe:
		for i := 0; i < n; i++ {
			if lv[i] >= rv[i] {
				ov[i] = 1
			}
		}
	default:
		return colVec{}, fmt.Errorf("%w: binary operator %d", ErrUnsupportedExpr, op)
	}
	return out, nil
}

// chunkFromVecs assembles evaluated columns into a chunk; column slices
// are aliased, not copied (chunks and vectors are immutable).
func chunkFromVecs(vecs []colVec, n int) *Chunk {
	ch := &Chunk{
		length: n,
		cols:   make([][]int64, len(vecs)),
		nulls:  make([]nullBitmap, len(vecs)),
	}
	for i, v := range vecs {
		ch.cols[i] = v.vals
		ch.nulls[i] = v.nulls
	}
	return ch
}
