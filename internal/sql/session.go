package sql

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"

	"dbcc/internal/engine"
)

// sessionSeq numbers isolated sessions so every one gets a distinct
// temporary-table namespace, even across goroutines.
var sessionSeq atomic.Uint64

// Session executes SQL statements against a cluster, mirroring the paper's
// Python driver: every executed statement reports the number of rows it
// produced, which the algorithms use as their termination signal.
//
// A Session is a lightweight, single-goroutine object; open one session per
// goroutine. The Cluster underneath is safe to share, so many sessions may
// execute statements concurrently. Sessions created with NewSession share
// the global table namespace; sessions created with NewIsolatedSession
// prefix every table they create with a session-private namespace, so
// concurrent runs of the paper's algorithms never collide on intermediate
// table names.
type Session struct {
	c    *engine.Cluster
	ns   string          // temp-table namespace prefix; "" shares the global namespace
	deny string          // bare names with this prefix never resolve globally; "" disables
	ctx  context.Context // statement execution context; nil means Background
}

// NewSession creates a session on the cluster using the shared global
// table namespace.
func NewSession(c *engine.Cluster) *Session { return &Session{c: c} }

// NewIsolatedSession creates a session whose created tables live in a
// fresh session-private namespace. References to tables the session did
// not create (for example a shared input edge table) resolve globally.
func NewIsolatedSession(c *engine.Cluster) *Session {
	return SessionWithNamespace(c, fmt.Sprintf("tmp%d_", sessionSeq.Add(1)))
}

// SessionWithNamespace creates a session with an explicit temporary-table
// namespace prefix. Callers that create tables through both the SQL layer
// and the engine API (package ccalg's runs) pass the same prefix to both
// so the two views agree on physical names.
func SessionWithNamespace(c *engine.Cluster, ns string) *Session {
	return &Session{c: c, ns: ns}
}

// RestrictPrefix returns a copy of the session whose Resolve refuses to
// fall back to global-namespace tables whose names carry the given
// prefix: such references resolve into the session's own namespace and
// therefore fail with "does not exist" unless the session created them.
// The multi-tenant server uses this to stop one tenant from naming
// another tenant's physical tables (all of which share one catalog
// prefix) while keeping genuinely shared global tables reachable. The
// receiver is unchanged.
func (s *Session) RestrictPrefix(prefix string) *Session {
	out := *s
	out.deny = prefix
	return &out
}

// WithContext returns a copy of the session whose statements execute
// under ctx: cancelling it (or its deadline expiring) aborts queries
// between operators and between segment tasks. The receiver is unchanged.
func (s *Session) WithContext(ctx context.Context) *Session {
	out := *s
	out.ctx = ctx
	return &out
}

// context returns the session's execution context, Background by default.
func (s *Session) context() context.Context {
	if s.ctx != nil {
		return s.ctx
	}
	return context.Background()
}

// Cluster returns the underlying cluster.
func (s *Session) Cluster() *engine.Cluster { return s.c }

// Namespace returns the session's temporary-table prefix ("" for sessions
// sharing the global namespace).
func (s *Session) Namespace() string { return s.ns }

// Resolve maps a table name as written in SQL to its catalog name: if the
// session namespace holds a table of that name it wins, otherwise the name
// refers to the shared global namespace. Within a namespace only this
// session creates and drops tables, so the existence probe is stable.
func (s *Session) Resolve(name string) string {
	if s.ns == "" {
		return name
	}
	phys := s.ns + name
	if _, ok := s.c.Table(phys); ok {
		return phys
	}
	if s.deny != "" && strings.HasPrefix(name, s.deny) {
		// Restricted prefix: never escape to the global namespace. The
		// in-namespace name (which does not exist) keeps the failure mode a
		// plain "table does not exist".
		return phys
	}
	return name
}

// tempName returns the catalog name a table created by this session gets.
func (s *Session) tempName(name string) string { return s.ns + name }

// resolver adapts Resolve for the planner; nil when no namespace is set so
// the planner takes its identity fast path.
func (s *Session) resolver() Resolver {
	if s.ns == "" {
		return nil
	}
	return s.Resolve
}

// Exec parses and executes a script of one or more statements and returns
// the row count produced by the last one (the paper's r.log_exec result).
//
// Single-statement SELECT and CREATE TABLE AS texts consult the engine's
// plan cache keyed on the normalized statement text: a validated hit skips
// both parse and plan. Statements with $N parameters are rejected here —
// they need Prepare, which binds them.
func (s *Session) Exec(src string) (int64, error) {
	toks, err := lex(src)
	if err != nil {
		return 0, err
	}
	if err := rejectParams(toks); err != nil {
		return 0, err
	}
	norm := normalizeTokens(toks)
	if t, ok := s.lookupTemplate(s.ns, norm, nil); ok {
		return s.execTemplate(t)
	}
	s.c.NoteParse()
	stmts, err := parseTokens(toks)
	if err != nil {
		return 0, err
	}
	if len(stmts) == 0 {
		return 0, fmt.Errorf("sql: empty statement")
	}
	if len(stmts) == 1 {
		if n, done, err := s.execStmtCaching(stmts[0], norm); done {
			return n, err
		}
	}
	var n int64
	for _, st := range stmts {
		n, err = s.ExecStmt(st)
		if err != nil {
			return 0, err
		}
	}
	return n, nil
}

// rejectParams fails unprepared execution of parameterised statements.
func rejectParams(toks []token) error {
	for _, t := range toks {
		if t.kind == tokParam {
			return fmt.Errorf("sql: statement has parameter $%s; use Prepare", t.text)
		}
	}
	return nil
}

// execStmtCaching executes a cache-eligible single statement, building and
// caching its plan template. done=false means the statement is not
// eligible (DDL, INSERT, FROM-less SELECT) and the caller should run it
// through the ordinary path without touching the cache counters.
func (s *Session) execStmtCaching(st Statement, norm string) (n int64, done bool, err error) {
	var sel *SelectStmt
	var isCTAS bool
	var target, distBy string
	switch st := st.(type) {
	case *SelectQuery:
		sel = st.Select
	case *CreateTableAs:
		sel, isCTAS, target, distBy = st.Select, true, st.Name, st.DistBy
	default:
		return 0, false, nil
	}
	if selectHasConstBlock(sel) {
		return 0, false, nil
	}
	s.c.NotePlanCacheMiss()
	t, err := s.buildTemplate(s.ns, norm, sel, isCTAS, target, distBy, nil)
	if err != nil {
		return 0, true, err
	}
	n, err = s.execTemplate(t)
	return n, true, err
}

// execTemplate runs a parameter-free cached template.
func (s *Session) execTemplate(t *planTemplate) (int64, error) {
	plan, err := s.instantiate(t, nil)
	if err != nil {
		return 0, err
	}
	if t.isCTAS {
		return s.c.CreateTableAsCtx(s.context(), s.tempName(t.target), plan, t.distKey)
	}
	_, rows, err := s.c.QueryCtx(s.context(), plan)
	if err != nil {
		return 0, err
	}
	return int64(len(rows)), nil
}

// Execf is Exec with fmt.Sprintf-style formatting, matching how the
// paper's driver interpolates table names and round keys into its queries.
func (s *Session) Execf(format string, args ...any) (int64, error) {
	return s.Exec(fmt.Sprintf(format, args...))
}

// ExecStmt executes one parsed statement.
func (s *Session) ExecStmt(st Statement) (int64, error) {
	switch st := st.(type) {
	case *CreateTableAs:
		plan, names, err := PlanSelectResolved(s.c, st.Select, s.resolver())
		if err != nil {
			return 0, err
		}
		distKey := engine.NoDistKey
		if st.DistBy != "" {
			distKey = names.ColIndex(st.DistBy)
			if distKey < 0 {
				return 0, fmt.Errorf("sql: DISTRIBUTED BY column %q is not in the select list %v", st.DistBy, names)
			}
		}
		return s.c.CreateTableAsCtx(s.context(), s.tempName(st.Name), renameOutput(plan, names), distKey)

	case *CreateTablePlain:
		distKey := engine.NoDistKey
		if st.DistBy != "" {
			distKey = engine.Schema(st.Cols).ColIndex(st.DistBy)
			if distKey < 0 {
				return 0, fmt.Errorf("sql: DISTRIBUTED BY column %q is not among the columns %v", st.DistBy, st.Cols)
			}
		}
		_, err := s.c.CreateTable(s.tempName(st.Name), engine.Schema(st.Cols), distKey)
		return 0, err

	case *ExplainStmt:
		// EXPLAIN is answered through Explain; executing it directly just
		// validates that the query plans. EXPLAIN ANALYZE does execute,
		// reporting the produced row count like any query.
		plan, _, err := PlanSelectResolved(s.c, st.Select, s.resolver())
		if err != nil {
			return 0, err
		}
		if !st.Analyze {
			return 0, nil
		}
		_, rows, err := s.c.QueryCtx(s.context(), plan)
		if err != nil {
			return 0, err
		}
		return int64(len(rows)), nil

	case *DropTable:
		for _, n := range st.Names {
			if err := s.c.DropTable(s.Resolve(n)); err != nil {
				return 0, err
			}
		}
		return 0, nil

	case *AlterRename:
		physOld := s.Resolve(st.Old)
		physNew := st.New
		if physOld != st.Old {
			// A session-temp table stays in the session's namespace.
			physNew = s.tempName(st.New)
		}
		return 0, s.c.RenameTable(physOld, physNew)

	case *InsertValues:
		t, ok := s.c.Table(s.Resolve(st.Name))
		if !ok {
			return 0, fmt.Errorf("sql: table %q does not exist", st.Name)
		}
		rows := make([]engine.Row, len(st.Rows))
		for i, exprRow := range st.Rows {
			if len(exprRow) != len(t.Schema) {
				return 0, fmt.Errorf("sql: INSERT row has %d values, table %q has %d columns",
					len(exprRow), st.Name, len(t.Schema))
			}
			row := make(engine.Row, len(exprRow))
			for j, e := range exprRow {
				ce, err := compileScalar(s.c, e, nil)
				if err != nil {
					return 0, err
				}
				if row[j], err = engine.EvalConst(ce); err != nil {
					return 0, err
				}
			}
			rows[i] = row
		}
		if err := s.c.InsertRows(s.Resolve(st.Name), rows); err != nil {
			return 0, err
		}
		return int64(len(rows)), nil

	case *InsertSelect:
		phys := s.Resolve(st.Name)
		t, ok := s.c.Table(phys)
		if !ok {
			return 0, fmt.Errorf("sql: table %q does not exist", st.Name)
		}
		plan, names, err := PlanSelectResolved(s.c, st.Select, s.resolver())
		if err != nil {
			return 0, err
		}
		if len(names) != len(t.Schema) {
			return 0, fmt.Errorf("sql: INSERT SELECT produces %d columns, table %q has %d",
				len(names), st.Name, len(t.Schema))
		}
		_, rows, err := s.c.QueryCtx(s.context(), plan)
		if err != nil {
			return 0, err
		}
		if err := s.c.InsertRows(phys, rows); err != nil {
			return 0, err
		}
		return int64(len(rows)), nil

	case *DeleteStmt:
		phys := s.Resolve(st.Name)
		t, ok := s.c.Table(phys)
		if !ok {
			return 0, fmt.Errorf("sql: table %q does not exist", st.Name)
		}
		var pred engine.Expr // no WHERE: delete all
		if st.Where != nil {
			sc := make(scope, len(t.Schema))
			for i, col := range t.Schema {
				sc[i] = scopeCol{qual: st.Name, name: col}
			}
			var err error
			if pred, err = compileScalar(s.c, st.Where, sc); err != nil {
				return 0, err
			}
		}
		return s.c.DeleteRows(phys, pred)

	case *CreateComponentIndex:
		return 0, s.c.CreateComponentIndex(s.Resolve(st.Table))

	case *DropComponentIndex:
		return 0, s.c.DropComponentIndex(s.Resolve(st.Table))

	case *SelectQuery:
		plan, names, err := PlanSelectResolved(s.c, st.Select, s.resolver())
		if err != nil {
			return 0, err
		}
		_, rows, err := s.c.QueryCtx(s.context(), renameOutput(plan, names))
		if err != nil {
			return 0, err
		}
		return int64(len(rows)), nil
	}
	return 0, fmt.Errorf("sql: unsupported statement %T", st)
}

// Query parses and executes a single SELECT, returning its schema and
// rows. Like Exec it consults the plan cache on the normalized statement
// text before paying for a parse.
func (s *Session) Query(src string) (engine.Schema, []engine.Row, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, nil, err
	}
	if err := rejectParams(toks); err != nil {
		return nil, nil, err
	}
	norm := normalizeTokens(toks)
	if t, ok := s.lookupTemplate(s.ns, norm, nil); ok && !t.isCTAS {
		_, rows, err := s.c.QueryCtx(s.context(), t.plan)
		if err != nil {
			return nil, nil, err
		}
		return t.names, rows, nil
	}
	s.c.NoteParse()
	stmts, err := parseTokens(toks)
	if err != nil {
		return nil, nil, err
	}
	if len(stmts) != 1 {
		return nil, nil, fmt.Errorf("sql: Query requires a single statement, got %d", len(stmts))
	}
	var sel *SelectStmt
	switch st := stmts[0].(type) {
	case *SelectQuery:
		sel = st.Select
	default:
		return nil, nil, fmt.Errorf("sql: Query requires a SELECT statement, got %T", st)
	}
	if !selectHasConstBlock(sel) {
		s.c.NotePlanCacheMiss()
		t, err := s.buildTemplate(s.ns, norm, sel, false, "", "", nil)
		if err != nil {
			return nil, nil, err
		}
		_, rows, err := s.c.QueryCtx(s.context(), t.plan)
		if err != nil {
			return nil, nil, err
		}
		return t.names, rows, nil
	}
	plan, names, err := PlanSelectResolved(s.c, sel, s.resolver())
	if err != nil {
		return nil, nil, err
	}
	_, rows, err := s.c.QueryCtx(s.context(), renameOutput(plan, names))
	if err != nil {
		return nil, nil, err
	}
	return names, rows, nil
}

// Explain plans a SELECT (or EXPLAIN [ANALYZE] SELECT) statement and
// returns the engine operator tree as text. A plain EXPLAIN only plans;
// EXPLAIN ANALYZE (or ExplainAnalyze) also executes the query and
// annotates every operator with its measured actual rows, bytes, wall
// time and per-segment breakdown.
func (s *Session) Explain(src string) (string, error) {
	s.c.NoteParse()
	st, err := ParseOne(src)
	if err != nil {
		return "", err
	}
	var sel *SelectStmt
	analyze := false
	switch st := st.(type) {
	case *ExplainStmt:
		sel = st.Select
		analyze = st.Analyze
	case *SelectQuery:
		sel = st.Select
	case *CreateTableAs:
		sel = st.Select
	default:
		return "", fmt.Errorf("sql: EXPLAIN requires a SELECT, got %T", st)
	}
	plan, names, err := PlanSelectResolved(s.c, sel, s.resolver())
	if err != nil {
		return "", err
	}
	if !analyze {
		return FormatExplain(plan, names), nil
	}
	_, rows, root, err := s.c.QueryAnalyzeCtx(s.context(), renameOutput(plan, names))
	if err != nil {
		return "", err
	}
	return FormatExplainAnalyze(root, names, int64(len(rows))) + s.planCacheLine(), nil
}

// planCacheLine renders the cluster's plan-cache counters for EXPLAIN
// ANALYZE reports.
func (s *Session) planCacheLine() string {
	st := s.c.Stats()
	return fmt.Sprintf("Plan cache: %d hits, %d misses, %d invalidations, %d entries, %d parses\n",
		st.PlanCacheHits, st.PlanCacheMisses, st.PlanCacheInvalidations, s.c.PlanCacheLen(), st.Parses)
}

// ExplainAnalyze executes a SELECT and returns the annotated operator
// profile report, regardless of whether the source text carries the
// EXPLAIN ANALYZE prefix.
func (s *Session) ExplainAnalyze(src string) (string, error) {
	s.c.NoteParse()
	st, err := ParseOne(src)
	if err != nil {
		return "", err
	}
	var sel *SelectStmt
	switch st := st.(type) {
	case *ExplainStmt:
		sel = st.Select
	case *SelectQuery:
		sel = st.Select
	default:
		return "", fmt.Errorf("sql: EXPLAIN ANALYZE requires a SELECT, got %T", st)
	}
	plan, names, err := PlanSelectResolved(s.c, sel, s.resolver())
	if err != nil {
		return "", err
	}
	_, rows, root, err := s.c.QueryAnalyzeCtx(s.context(), renameOutput(plan, names))
	if err != nil {
		return "", err
	}
	return FormatExplainAnalyze(root, names, int64(len(rows))) + s.planCacheLine(), nil
}

// Queryf is Query with fmt.Sprintf-style formatting.
func (s *Session) Queryf(format string, args ...any) (engine.Schema, []engine.Row, error) {
	return s.Query(fmt.Sprintf(format, args...))
}

// renameOutput wraps the plan so the materialised table carries the SELECT
// list's output names (projections already do; joins and scans may not).
func renameOutput(plan engine.Plan, names engine.Schema) engine.Plan {
	if pp, ok := plan.(engine.ProjectPlan); ok {
		match := len(pp.Cols) == len(names)
		for i := range pp.Cols {
			if !match {
				break
			}
			match = pp.Cols[i].Name == names[i]
		}
		if match {
			return plan
		}
	}
	cols := make([]engine.ProjCol, len(names))
	for i, n := range names {
		cols[i] = engine.ProjCol{Expr: engine.Col(i), Name: n}
	}
	return engine.Project(plan, cols...)
}
