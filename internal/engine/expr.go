package engine

import "fmt"

// Expr is a scalar expression tree over the columns of its input. The
// engine evaluates it column-at-a-time over chunks (see evalVec in
// eval.go); the node types below are the ones the evaluator knows.
type Expr interface {
	// String renders the expression for plan explanations.
	String() string
}

// ColRef references an input column by position.
type ColRef struct {
	Idx  int
	Name string // for display only
}

func (e ColRef) String() string {
	if e.Name != "" {
		return e.Name
	}
	return fmt.Sprintf("$%d", e.Idx)
}

// Col returns a column reference expression.
func Col(idx int) Expr { return ColRef{Idx: idx} }

// NamedCol returns a column reference carrying a display name.
func NamedCol(idx int, name string) Expr { return ColRef{Idx: idx, Name: name} }

// ConstExpr is a literal value.
type ConstExpr struct{ Val Datum }

func (e ConstExpr) String() string {
	if e.Val.Null {
		return "NULL"
	}
	return fmt.Sprintf("%d", e.Val.Int)
}

// Const returns a non-null integer literal expression.
func Const(v int64) Expr { return ConstExpr{Val: I(v)} }

// Null is the SQL NULL literal expression.
var Null Expr = ConstExpr{Val: NullDatum}

// BinOp identifies a built-in binary operator.
type BinOp int

// Built-in binary operators. Comparisons yield 1/0, or NULL if either
// operand is NULL (SQL three-valued logic, where unknown filters as false).
const (
	OpEq BinOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAdd
	OpSub
	OpAnd
	OpOr
)

var binOpNames = map[BinOp]string{
	OpEq: "=", OpNe: "!=", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
	OpAdd: "+", OpSub: "-", OpAnd: "AND", OpOr: "OR",
}

// BinExpr applies a built-in binary operator with SQL NULL propagation:
// any NULL operand makes a comparison or arithmetic result NULL, except
// AND/OR, which follow three-valued logic (false AND NULL is false, true
// OR NULL is true).
type BinExpr struct {
	Op          BinOp
	Left, Right Expr
}

func (e BinExpr) String() string {
	return fmt.Sprintf("(%s %s %s)", e.Left, binOpNames[e.Op], e.Right)
}

// Bin builds a binary operator expression.
func Bin(op BinOp, l, r Expr) Expr { return BinExpr{Op: op, Left: l, Right: r} }

// LeastExpr is SQL least(...): the minimum of its non-NULL arguments,
// matching the semantics the paper's representative query relies on
// ("least(axb(A,v,B), min(axb(A,w,B)))").
type LeastExpr struct{ Args []Expr }

func (e LeastExpr) String() string { return fnString("least", e.Args) }

// Least builds a least(...) expression.
func Least(args ...Expr) Expr { return LeastExpr{Args: args} }

// CoalesceExpr is SQL coalesce(...): the first non-NULL argument.
type CoalesceExpr struct{ Args []Expr }

func (e CoalesceExpr) String() string { return fnString("coalesce", e.Args) }

// Coalesce builds a coalesce(...) expression.
func Coalesce(args ...Expr) Expr { return CoalesceExpr{Args: args} }

// IsNullExpr is SQL "expr IS NULL" (negate for IS NOT NULL).
type IsNullExpr struct {
	Arg    Expr
	Negate bool
}

func (e IsNullExpr) String() string {
	if e.Negate {
		return fmt.Sprintf("(%s IS NOT NULL)", e.Arg)
	}
	return fmt.Sprintf("(%s IS NULL)", e.Arg)
}

// IsNull builds an IS NULL predicate.
func IsNull(arg Expr) Expr { return IsNullExpr{Arg: arg} }

// IsNotNull builds an IS NOT NULL predicate.
func IsNotNull(arg Expr) Expr { return IsNullExpr{Arg: arg, Negate: true} }

// UDFExpr calls a function registered on the cluster, the analogue of the
// paper loading its C axplusb function into HAWQ.
type UDFExpr struct {
	Name string
	Fn   UDF
	Args []Expr
}

func (e UDFExpr) String() string { return fnString(e.Name, e.Args) }

// CallUDF builds a call to the named registered function. It returns an
// error if the function is not registered. The returned expression captures
// the function value at build time, so re-registering a UDF never affects
// queries already planned (or executing) in other sessions.
func (c *Cluster) CallUDF(name string, args ...Expr) (Expr, error) {
	fn, ok := c.UDF(name)
	if !ok {
		return nil, fmt.Errorf("engine: function %q is not registered", name)
	}
	return UDFExpr{Name: name, Fn: fn, Args: args}, nil
}

func fnString(name string, args []Expr) string {
	s := name + "("
	for i, a := range args {
		if i > 0 {
			s += ", "
		}
		s += a.String()
	}
	return s + ")"
}
