package engine

import (
	"errors"
	"fmt"
	"testing"
)

// evalTestChunk builds a 150-row chunk spanning three null-bitmap words:
// column 0 has no NULLs (nil bitmap), columns 1 and 2 have NULLs at
// different rows, and values repeat so comparisons see ties.
func evalTestChunk(t *testing.T) *Chunk {
	t.Helper()
	rows := make([]Row, 150)
	for i := range rows {
		a, b, c := I(int64(i%7-3)), I(int64(i%5-2)), I(int64(i%4))
		if i%3 == 0 {
			b = NullDatum
		}
		if i%5 == 1 {
			c = NullDatum
		}
		rows[i] = Row{a, b, c}
	}
	ch := rowsToChunk(rows, 3)
	if ch.nulls[0] != nil || ch.nulls[1] == nil || ch.nulls[2] == nil {
		t.Fatal("test chunk does not have the intended null layout")
	}
	return ch
}

// refBin is the scalar reference for BinExpr semantics: NULL propagates
// through comparisons and arithmetic; AND/OR use three-valued logic.
func refBin(op BinOp, l, r Datum) Datum {
	b := func(ok bool) Datum {
		if ok {
			return I(1)
		}
		return I(0)
	}
	isFalse := func(d Datum) bool { return !d.Null && d.Int == 0 }
	isTrue := func(d Datum) bool { return !d.Null && d.Int != 0 }
	switch op {
	case OpAnd:
		if isFalse(l) || isFalse(r) {
			return I(0)
		}
		if l.Null || r.Null {
			return NullDatum
		}
		return I(1)
	case OpOr:
		if isTrue(l) || isTrue(r) {
			return I(1)
		}
		if l.Null || r.Null {
			return NullDatum
		}
		return I(0)
	}
	if l.Null || r.Null {
		return NullDatum
	}
	switch op {
	case OpEq:
		return b(l.Int == r.Int)
	case OpNe:
		return b(l.Int != r.Int)
	case OpLt:
		return b(l.Int < r.Int)
	case OpLe:
		return b(l.Int <= r.Int)
	case OpGt:
		return b(l.Int > r.Int)
	case OpGe:
		return b(l.Int >= r.Int)
	case OpAdd:
		return I(l.Int + r.Int)
	case OpSub:
		return I(l.Int - r.Int)
	}
	panic(fmt.Sprintf("refBin: unknown operator %d", op))
}

// TestEvalVecSelectionEquivalence checks, for every expression kind and
// every binary operator, that evaluating under a selection yields exactly
// the selected rows of the full evaluation: evalVec(e, ch, sel) row i
// equals evalVec(e, ch, nil) row sel[i], in value and NULL. Binary
// operators are also checked row by row against the scalar reference.
func TestEvalVecSelectionEquivalence(t *testing.T) {
	ch := evalTestChunk(t)
	udf := UDFExpr{Name: "f", Fn: func(args []Datum) Datum {
		// NULL when the first argument is NULL or the second is even.
		if args[0].Null || args[1].Int%2 == 0 {
			return NullDatum
		}
		return I(args[0].Int*10 + args[1].Int)
	}, Args: []Expr{Col(1), Col(0)}}

	exprs := []Expr{
		Col(0), Col(1), Col(2),
		Const(7), Const(0), Null,
		IsNull(Col(0)), IsNull(Col(1)), IsNotNull(Col(2)), IsNull(Null),
		Coalesce(Col(1), Col(2), Const(-1)), Coalesce(Null, Col(1)), Coalesce(Null),
		Least(Col(0), Col(1), Col(2)), Least(Null, Col(1)), Least(Null, Null),
		udf,
		Bin(OpAnd, IsNotNull(Col(1)), Bin(OpLt, udf, Const(5))),
		Coalesce(udf, Least(Col(2), Bin(OpSub, Col(0), Col(1)))),
	}
	// datumOf reads a column-or-constant operand at one input row.
	datumOf := func(e Expr, row int) Datum {
		if ref, ok := e.(ColRef); ok {
			return ch.datum(ref.Idx, row)
		}
		return e.(ConstExpr).Val
	}
	var bins []BinExpr
	for op := OpEq; op <= OpOr; op++ {
		if _, ok := binOpNames[op]; !ok {
			t.Fatalf("operator %d has no name", op)
		}
		operands := [][2]Expr{{Col(0), Col(1)}, {Col(1), Col(2)}, {Col(1), Null}, {Null, Col(0)}, {Col(0), Const(0)}}
		for _, lr := range operands {
			bins = append(bins, BinExpr{Op: op, Left: lr[0], Right: lr[1]})
			exprs = append(exprs, bins[len(bins)-1])
		}
	}

	sels := map[string][]int32{"empty": {}, "single": {77}, "reversed": nil, "every-third": nil, "straddles-word": {62, 63, 64, 65, 127, 128, 0, 149}}
	for r := int32(ch.length - 1); r >= 0; r-- {
		sels["reversed"] = append(sels["reversed"], r)
	}
	for r := int32(1); r < int32(ch.length); r += 3 {
		sels["every-third"] = append(sels["every-third"], r)
	}

	for _, e := range exprs {
		full, err := evalVec(e, ch, nil)
		if err != nil {
			t.Fatalf("%s: %v", e, err)
		}
		if len(full.vals) != ch.length {
			t.Fatalf("%s: full evaluation has %d rows, want %d", e, len(full.vals), ch.length)
		}
		for name, sel := range sels {
			got, err := evalVec(e, ch, sel)
			if err != nil {
				t.Fatalf("%s under %s: %v", e, name, err)
			}
			if len(got.vals) != len(sel) {
				t.Fatalf("%s under %s: %d rows, want %d", e, name, len(got.vals), len(sel))
			}
			for i, r := range sel {
				if g, w := got.datum(i), full.datum(int(r)); g != w {
					t.Fatalf("%s under %s: row %d (input row %d) = %v, want %v", e, name, i, r, g, w)
				}
			}
		}
	}
	for _, e := range bins {
		full, err := evalVec(e, ch, nil)
		if err != nil {
			t.Fatalf("%s: %v", e, err)
		}
		for r := 0; r < ch.length; r++ {
			if g, w := full.datum(r), refBin(e.Op, datumOf(e.Left, r), datumOf(e.Right, r)); g != w {
				t.Fatalf("%s row %d = %v, want %v", e, r, g, w)
			}
		}
	}
}

// opaqueExpr is an Expr implementation the evaluator does not know.
type opaqueExpr struct{}

func (opaqueExpr) String() string { return "opaque" }

// TestMalformedExprFailsQuery runs a malformed expression through every
// evaluation route: each must fail with ErrUnsupportedExpr, never crash
// the process, and a failed DELETE must leave the table unchanged.
func TestMalformedExprFailsQuery(t *testing.T) {
	bad := BinExpr{Op: 99, Left: Col(0), Right: Col(1)}
	c := newTestCluster(t, 4)
	rows := pairs([2]int64{1, 2}, [2]int64{3, 4}, [2]int64{5, 6}, [2]int64{7, 8}, [2]int64{9, 10})
	mustCreate(t, c, "t", Schema{"v1", "v2"}, 0, rows)
	scan := Scan("t")
	plans := map[string]Plan{
		"unfused filter":     Filter(scan, bad),
		"fused outer filter": Filter(Filter(scan, Bin(OpGt, Col(0), Const(2))), bad),
		"fused projection":   Project(Filter(scan, Bin(OpGt, Col(0), Const(2))), ProjCol{Expr: bad, Name: "b"}),
		"projection":         Project(scan, ProjCol{Expr: bad, Name: "b"}),
	}
	for name, p := range plans {
		if _, _, err := c.Query(p); !errors.Is(err, ErrUnsupportedExpr) {
			t.Errorf("%s: err = %v, want ErrUnsupportedExpr", name, err)
		}
	}

	for _, pred := range []Expr{bad, Bin(OpOr, Const(1), opaqueExpr{})} {
		removed, err := c.DeleteRows("t", pred)
		if !errors.Is(err, ErrUnsupportedExpr) || removed != 0 {
			t.Errorf("DeleteRows(%s) = %d, %v; want 0, ErrUnsupportedExpr", pred, removed, err)
		}
		got, err := c.ReadAll("t")
		if err != nil {
			t.Fatal(err)
		}
		sortRows(got)
		if fmt.Sprint(got) != fmt.Sprint(rows) {
			t.Fatalf("failed DeleteRows changed the table: %v", got)
		}
	}

	for _, e := range []Expr{Bin(99, Const(1), Const(2)), opaqueExpr{}} {
		if _, err := EvalConst(e); !errors.Is(err, ErrUnsupportedExpr) {
			t.Errorf("EvalConst(%s): err = %v, want ErrUnsupportedExpr", e, err)
		}
	}
	if d, err := EvalConst(Bin(OpAdd, Const(40), Const(2))); err != nil || d != I(42) {
		t.Fatalf("EvalConst(40 + 2) = %v, %v", d, err)
	}
}
