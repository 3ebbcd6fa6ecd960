package plan

import (
	"fmt"
	"strings"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/sql"
	"repro/internal/types"
)

// Builder turns statements into plan trees using a catalog for name
// resolution and index information. It is the one place names are resolved,
// so it also records the kind each bind parameter takes from the column it
// meets (ParamKinds).
type Builder struct {
	cat *catalog.Catalog
	// viewsInProgress detects recursive view definitions.
	viewsInProgress map[string]bool
	// kinds holds each parameter's kind by ordinal (KindNull: any).
	kinds []types.Kind
}

// NewBuilder creates a planner over the catalog.
func NewBuilder(cat *catalog.Catalog) *Builder {
	return &Builder{cat: cat, viewsInProgress: map[string]bool{}}
}

// Build plans a SELECT statement.
func (b *Builder) Build(sel *sql.SelectStmt) (Node, error) {
	if len(sel.Items) == 0 {
		return nil, fmt.Errorf("plan: SELECT list is empty")
	}

	// FROM clause → join tree of scans and derived (view) nodes.
	var root Node
	var err error
	if len(sel.From) == 0 {
		return nil, fmt.Errorf("plan: SELECT without FROM is not supported")
	}
	root, err = b.buildFrom(sel.From)
	if err != nil {
		return nil, err
	}

	// WHERE: split into conjuncts, push single-table conjuncts down to their
	// scans, keep the rest in a Filter above the join tree.
	if sel.Where != nil {
		if err := b.resolve(sel.Where, root.Schema()); err != nil {
			return nil, fmt.Errorf("plan: WHERE: %w", err)
		}
		conjuncts := splitConjuncts(sel.Where)
		remaining := b.pushDown(root, conjuncts, false)
		if len(remaining) > 0 {
			root = &FilterNode{Input: root, Cond: joinConjuncts(remaining)}
		}
	}

	// Pick access paths for every scan now that predicates are in place.
	chooseAccessPaths(root)

	// Aggregation.
	aggregated := false
	var aggNode *AggregateNode
	needsAgg := len(sel.GroupBy) > 0 || sel.Having != nil
	for _, item := range sel.Items {
		if !item.Star && sql.HasAggregate(item.Expr) {
			needsAgg = true
		}
	}
	if needsAgg {
		aggNode, err = b.buildAggregate(root, sel)
		if err != nil {
			return nil, err
		}
		root = aggNode
		aggregated = true
	}

	// Projection (the SELECT list). When aggregated, item expressions are
	// rewritten to reference the aggregate's output columns.
	items, err := b.buildProjectItems(root, sel, aggregated, aggNode)
	if err != nil {
		return nil, err
	}
	// HAVING runs between aggregation and projection.
	if sel.Having != nil {
		if !aggregated {
			return nil, fmt.Errorf("plan: HAVING requires GROUP BY or aggregates")
		}
		// Its parameters took their kinds in buildAggregate.
		having := rewriteAggregateRefs(sel.Having, aggNode)
		if err := checkResolves(having, root.Schema()); err != nil {
			return nil, fmt.Errorf("plan: HAVING: %w", err)
		}
		root = &FilterNode{Input: root, Cond: having}
	}

	project := &ProjectNode{Input: root, Items: items}
	project.schema, err = b.projectSchema(root.Schema(), items)
	if err != nil {
		return nil, err
	}

	// ORDER BY may reference either the projected columns (aliases) or the
	// pre-projection columns; sort wherever the keys resolve.
	var sortKeys []SortKey
	sortAfterProject := true
	if len(sel.OrderBy) > 0 {
		for _, o := range sel.OrderBy {
			key := o.Expr
			if aggregated {
				key = rewriteAggregateRefs(key, aggNode)
			}
			sortKeys = append(sortKeys, SortKey{Expr: key, Desc: o.Desc})
		}
		for _, k := range sortKeys {
			if err := checkResolves(k.Expr, project.schema); err != nil {
				sortAfterProject = false
				break
			}
		}
		sortSchema := project.schema
		if !sortAfterProject {
			sortSchema = root.Schema()
		}
		for _, k := range sortKeys {
			if err := b.resolveUnlessAggregated(k.Expr, sortSchema, aggregated); err != nil {
				return nil, fmt.Errorf("plan: ORDER BY: %w", err)
			}
		}
	}

	var out Node
	if sortAfterProject {
		out = Node(project)
		if len(sortKeys) > 0 {
			out = elideSort(&SortNode{Input: out, Keys: sortKeys})
		}
	} else {
		sorted := &SortNode{Input: root, Keys: sortKeys}
		project.Input = elideSort(sorted)
		out = project
	}

	if sel.Distinct {
		out = &DistinctNode{Input: out}
	}
	if sel.Limit != nil || sel.Offset != nil {
		limit := int64(-1)
		if sel.Limit != nil {
			limit = *sel.Limit
		}
		var offset int64
		if sel.Offset != nil {
			offset = *sel.Offset
		}
		out = &LimitNode{Input: out, Limit: limit, Offset: offset}
	}
	return out, nil
}

// buildFrom builds the left-deep join tree for the FROM clause.
func (b *Builder) buildFrom(refs []sql.TableRef) (Node, error) {
	var root Node
	for i, ref := range refs {
		child, err := b.buildTableRef(ref)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			root = child
			continue
		}
		join := &JoinNode{
			Left:     root,
			Right:    child,
			Strategy: JoinNestedLoop,
			Outer:    ref.Join == sql.JoinLeft,
			On:       ref.On,
			schema:   root.Schema().Concat(child.Schema()),
		}
		// Hash join when the condition contains an equi-join conjunct whose
		// sides resolve against opposite inputs.
		if ref.On != nil {
			if eqL, eqR, residual, ok := splitEquiJoin(ref.On, root.Schema(), child.Schema()); ok {
				join.Strategy = JoinHash
				join.EqLeft, join.EqRight, join.Residual = eqL, eqR, residual
			}
			if err := b.resolve(ref.On, join.schema); err != nil {
				return nil, fmt.Errorf("plan: join condition: %w", err)
			}
		}
		root = join
	}
	return root, nil
}

// buildTableRef resolves one FROM entry to a scan of a base table or a
// derived node wrapping a view's plan.
func (b *Builder) buildTableRef(ref sql.TableRef) (Node, error) {
	name := ref.Name
	alias := strings.ToLower(ref.EffectiveName())
	if b.cat.HasTable(name) {
		table, err := b.cat.GetTable(name)
		if err != nil {
			return nil, err
		}
		return &ScanNode{
			Table:   table,
			Alias:   alias,
			Access:  AccessSeqScan,
			EqParam: -1,
			schema:  table.Schema().WithTable(alias),
		}, nil
	}
	if b.cat.HasView(name) {
		view, err := b.cat.GetView(name)
		if err != nil {
			return nil, err
		}
		if b.viewsInProgress[view.Name] {
			return nil, fmt.Errorf("plan: view %q is defined in terms of itself", view.Name)
		}
		b.viewsInProgress[view.Name] = true
		defer delete(b.viewsInProgress, view.Name)
		query, err := sql.ParseSelect(view.Query)
		if err != nil {
			return nil, fmt.Errorf("plan: view %q has an invalid definition: %w", view.Name, err)
		}
		sub, err := b.Build(query)
		if err != nil {
			return nil, fmt.Errorf("plan: expanding view %q: %w", view.Name, err)
		}
		subSchema := sub.Schema()
		cols := make([]types.Column, subSchema.Len())
		copy(cols, subSchema.Columns)
		if len(view.Columns) > 0 {
			if len(view.Columns) != len(cols) {
				return nil, fmt.Errorf("plan: view %q names %d columns but produces %d", view.Name, len(view.Columns), len(cols))
			}
			for i := range cols {
				cols[i].Name = view.Columns[i]
			}
		}
		for i := range cols {
			cols[i].Table = alias
		}
		return &DerivedNode{Input: sub, Alias: alias, schema: &types.Schema{Columns: cols}}, nil
	}
	return nil, fmt.Errorf("plan: no table or view named %q", name)
}

// pushDown walks the join tree pushing conjuncts onto the deepest scan whose
// schema resolves them. Conjuncts that cannot be pushed are returned.
// underOuter is true below the nullable side of a LEFT join, where pushing a
// WHERE predicate would change results.
func (b *Builder) pushDown(n Node, conjuncts []sql.Expr, underOuter bool) []sql.Expr {
	var remaining []sql.Expr
	switch n := n.(type) {
	case *JoinNode:
		leftRemaining := b.pushDown(n.Left, conjuncts, underOuter)
		remaining = b.pushDown(n.Right, leftRemaining, underOuter || n.Outer)
	case *ScanNode:
		if underOuter {
			return conjuncts
		}
		for _, c := range conjuncts {
			if checkResolves(c, n.schema) == nil && !sql.HasAggregate(c) {
				n.Filter = andExprs(n.Filter, c)
			} else {
				remaining = append(remaining, c)
			}
		}
	case *DerivedNode:
		if underOuter {
			return conjuncts
		}
		// A derived table cannot absorb outer predicates structurally (its
		// plan is already built), so they stay above it.
		return conjuncts
	default:
		return conjuncts
	}
	return remaining
}

// buildAggregate constructs the AggregateNode for a grouped or aggregated
// query.
func (b *Builder) buildAggregate(input Node, sel *sql.SelectStmt) (*AggregateNode, error) {
	agg := &AggregateNode{Input: input}
	inSchema := input.Schema()

	for _, g := range sel.GroupBy {
		if err := b.resolve(g, inSchema); err != nil {
			return nil, fmt.Errorf("plan: GROUP BY: %w", err)
		}
		agg.GroupBy = append(agg.GroupBy, ProjectItem{Expr: g, Name: exprName(g)})
	}

	// Collect every distinct aggregate call in the SELECT list, HAVING and
	// ORDER BY. Their parameters take kinds here, from the columns of the
	// rows being grouped: after aggregation the rewritten expressions
	// resolve against the aggregate's outputs instead.
	seen := map[string]bool{}
	collect := func(e sql.Expr) error {
		b.noteParams(e, inSchema)
		var collectErr error
		sql.WalkExpr(e, func(node sql.Expr) bool {
			call, ok := node.(*sql.FuncCall)
			if !ok || !call.IsAggregate() {
				return true
			}
			name := call.String()
			if seen[name] {
				return false
			}
			seen[name] = true
			spec, err := aggSpecFor(call)
			if err != nil {
				collectErr = err
				return false
			}
			if spec.Arg != nil {
				if err := checkResolves(spec.Arg, inSchema); err != nil {
					collectErr = fmt.Errorf("plan: %s: %w", name, err)
					return false
				}
			}
			agg.Aggs = append(agg.Aggs, spec)
			return false
		})
		return collectErr
	}
	for _, item := range sel.Items {
		if item.Star {
			return nil, fmt.Errorf("plan: SELECT * cannot be combined with GROUP BY or aggregates")
		}
		if err := collect(item.Expr); err != nil {
			return nil, err
		}
	}
	if sel.Having != nil {
		if err := collect(sel.Having); err != nil {
			return nil, err
		}
	}
	for _, o := range sel.OrderBy {
		if err := collect(o.Expr); err != nil {
			return nil, err
		}
	}
	if len(agg.Aggs) == 0 && len(agg.GroupBy) == 0 {
		return nil, fmt.Errorf("plan: internal error: aggregation requested with nothing to aggregate")
	}

	// Non-aggregate select items must be group-by expressions.
	for _, item := range sel.Items {
		if sql.HasAggregate(item.Expr) {
			continue
		}
		if !isGroupedExpr(item.Expr, agg.GroupBy) {
			return nil, fmt.Errorf("plan: column %s must appear in GROUP BY or inside an aggregate", item.Expr.String())
		}
	}

	// Output schema: group-by columns then aggregates.
	var cols []types.Column
	for _, g := range agg.GroupBy {
		kind := types.KindNull
		if c, err := expr.Compile(g.Expr, inSchema); err == nil {
			kind = c.Kind()
		}
		cols = append(cols, types.Column{Name: g.Name, Type: kind})
	}
	for _, a := range agg.Aggs {
		cols = append(cols, types.Column{Name: a.Name, Type: aggResultKind(a, inSchema)})
	}
	agg.schema = &types.Schema{Columns: cols}
	return agg, nil
}

func aggSpecFor(call *sql.FuncCall) (AggSpec, error) {
	name := strings.ToUpper(call.Name)
	spec := AggSpec{Name: call.String()}
	if call.Star {
		if name != "COUNT" {
			return spec, fmt.Errorf("plan: %s(*) is not valid", name)
		}
		spec.Func = AggCountStar
		return spec, nil
	}
	if len(call.Args) != 1 {
		return spec, fmt.Errorf("plan: %s takes exactly one argument", name)
	}
	spec.Arg = call.Args[0]
	switch name {
	case "COUNT":
		spec.Func = AggCount
	case "SUM":
		spec.Func = AggSum
	case "AVG":
		spec.Func = AggAvg
	case "MIN":
		spec.Func = AggMin
	case "MAX":
		spec.Func = AggMax
	default:
		return spec, fmt.Errorf("plan: unknown aggregate %s", name)
	}
	return spec, nil
}

func aggResultKind(a AggSpec, inSchema *types.Schema) types.Kind {
	switch a.Func {
	case AggCount, AggCountStar:
		return types.KindInt
	case AggAvg:
		return types.KindFloat
	case AggSum:
		if a.Arg != nil {
			if c, err := expr.Compile(a.Arg, inSchema); err == nil && c.Kind() == types.KindInt {
				return types.KindInt
			}
		}
		return types.KindFloat
	default: // MIN, MAX keep their argument's type
		if a.Arg != nil {
			if c, err := expr.Compile(a.Arg, inSchema); err == nil {
				return c.Kind()
			}
		}
		return types.KindNull
	}
}

func isGroupedExpr(e sql.Expr, groupBy []ProjectItem) bool {
	text := e.String()
	for _, g := range groupBy {
		if g.Expr.String() == text || g.Name == text {
			return true
		}
	}
	// An expression built only from grouped columns and literals is fine too
	// (for example UPPER(city) when grouping by city).
	cols := sql.ColumnsIn(e)
	if len(cols) == 0 {
		return true
	}
	for _, c := range cols {
		found := false
		for _, g := range groupBy {
			if strings.EqualFold(g.Expr.String(), c.String()) || strings.EqualFold(g.Name, c.Name) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// buildProjectItems expands stars and names each output column.
func (b *Builder) buildProjectItems(input Node, sel *sql.SelectStmt, aggregated bool, aggNode *AggregateNode) ([]ProjectItem, error) {
	inSchema := input.Schema()
	var items []ProjectItem
	for _, item := range sel.Items {
		switch {
		case item.Star && item.StarTable == "":
			for _, col := range inSchema.Columns {
				items = append(items, ProjectItem{
					Expr: &sql.ColumnRef{Table: col.Table, Name: col.Name},
					Name: col.Name,
				})
			}
		case item.Star:
			found := false
			for _, col := range inSchema.Columns {
				if strings.EqualFold(col.Table, item.StarTable) {
					items = append(items, ProjectItem{
						Expr: &sql.ColumnRef{Table: col.Table, Name: col.Name},
						Name: col.Name,
					})
					found = true
				}
			}
			if !found {
				return nil, fmt.Errorf("plan: %s.* does not match any table in FROM", item.StarTable)
			}
		default:
			e := item.Expr
			if aggregated {
				e = rewriteAggregateRefs(e, aggNode)
			}
			if err := b.resolveUnlessAggregated(e, inSchema, aggregated); err != nil {
				return nil, fmt.Errorf("plan: SELECT list: %w", err)
			}
			name := item.Alias
			if name == "" {
				name = exprName(item.Expr)
			}
			items = append(items, ProjectItem{Expr: e, Name: name})
		}
	}
	return items, nil
}

func (b *Builder) projectSchema(inSchema *types.Schema, items []ProjectItem) (*types.Schema, error) {
	cols := make([]types.Column, len(items))
	for i, item := range items {
		kind := types.KindNull
		if c, err := expr.Compile(item.Expr, inSchema); err == nil {
			kind = c.Kind()
		}
		table := ""
		if ref, ok := item.Expr.(*sql.ColumnRef); ok {
			table = ref.Table
		}
		cols[i] = types.Column{Name: item.Name, Table: table, Type: kind}
	}
	return &types.Schema{Columns: cols}, nil
}

// exprName gives an output column its default name: bare column names stay
// themselves, everything else uses the expression text.
func exprName(e sql.Expr) string {
	if ref, ok := e.(*sql.ColumnRef); ok {
		return ref.Name
	}
	return e.String()
}

// checkResolves verifies every column in e resolves against the schema.
// The planner probes with it; where a clause's names are finally resolved it
// calls resolve instead.
func checkResolves(e sql.Expr, schema *types.Schema) error {
	for _, c := range sql.ColumnsIn(e) {
		if _, err := schema.ColumnIndex(c.RefName()); err != nil {
			return err
		}
	}
	return nil
}

// resolve verifies every column in e resolves against the schema, and gives
// each parameter e compares directly with one of those columns the column's
// kind: "col OP ?", "? OP col", "col BETWEEN ? AND ?", "col IN (?, ...)".
func (b *Builder) resolve(e sql.Expr, schema *types.Schema) error {
	if err := checkResolves(e, schema); err != nil {
		return err
	}
	b.noteParams(e, schema)
	return nil
}

// resolveUnlessAggregated resolves e, recording parameter kinds only when
// the query does not aggregate (buildAggregate records them otherwise).
func (b *Builder) resolveUnlessAggregated(e sql.Expr, schema *types.Schema, aggregated bool) error {
	if aggregated {
		return checkResolves(e, schema)
	}
	return b.resolve(e, schema)
}

// noteParams records the kind of each parameter e pairs with a column of the
// schema; see resolve.
func (b *Builder) noteParams(e sql.Expr, schema *types.Schema) {
	pair := func(col, param sql.Expr) {
		ref, isRef := col.(*sql.ColumnRef)
		p, isParam := param.(*sql.Param)
		if !isRef || !isParam {
			return
		}
		if idx, err := schema.ColumnIndex(ref.RefName()); err == nil {
			b.setParamKind(p, schema.Columns[idx].Type)
		}
	}
	sql.WalkExpr(e, func(node sql.Expr) bool {
		switch node := node.(type) {
		case *sql.BinaryExpr:
			pair(node.Left, node.Right)
			pair(node.Right, node.Left)
		case *sql.BetweenExpr:
			pair(node.Operand, node.Low)
			pair(node.Operand, node.High)
		case *sql.InExpr:
			for _, item := range node.List {
				pair(node.Operand, item)
			}
		}
		return true
	})
}

// setParamKind records that parameter p binds as kind. A later record
// replaces an earlier one; KindNull records nothing.
func (b *Builder) setParamKind(p *sql.Param, kind types.Kind) {
	if p.Index < 0 || kind == types.KindNull {
		return
	}
	for len(b.kinds) <= p.Index {
		b.kinds = append(b.kinds, types.KindNull)
	}
	b.kinds[p.Index] = kind
}

// ParamKinds returns the kind each of the first n parameters binds as, from
// the columns the statements this builder planned compare them with, assign
// them to or insert them into. KindNull means the parameter met no column
// and binds any value.
func (b *Builder) ParamKinds(n int) []types.Kind {
	out := make([]types.Kind, n)
	copy(out, b.kinds)
	return out
}

// splitConjuncts flattens a chain of ANDs into its conjuncts.
func splitConjuncts(e sql.Expr) []sql.Expr {
	if bin, ok := e.(*sql.BinaryExpr); ok && bin.Op == sql.OpAnd {
		return append(splitConjuncts(bin.Left), splitConjuncts(bin.Right)...)
	}
	return []sql.Expr{e}
}

// joinConjuncts rebuilds an AND chain.
func joinConjuncts(conjuncts []sql.Expr) sql.Expr {
	if len(conjuncts) == 0 {
		return nil
	}
	out := conjuncts[0]
	for _, c := range conjuncts[1:] {
		out = &sql.BinaryExpr{Op: sql.OpAnd, Left: out, Right: c}
	}
	return out
}

func andExprs(a, b sql.Expr) sql.Expr {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	return &sql.BinaryExpr{Op: sql.OpAnd, Left: a, Right: b}
}

// splitEquiJoin looks for a top-level equality conjunct whose sides resolve
// against opposite join inputs; the rest of the condition becomes residual.
func splitEquiJoin(on sql.Expr, left, right *types.Schema) (eqLeft, eqRight, residual sql.Expr, ok bool) {
	conjuncts := splitConjuncts(on)
	var rest []sql.Expr
	for i, c := range conjuncts {
		bin, isEq := c.(*sql.BinaryExpr)
		if !isEq || bin.Op != sql.OpEq || eqLeft != nil {
			rest = append(rest, c)
			continue
		}
		switch {
		case checkResolves(bin.Left, left) == nil && checkResolves(bin.Right, right) == nil:
			eqLeft, eqRight = bin.Left, bin.Right
		case checkResolves(bin.Left, right) == nil && checkResolves(bin.Right, left) == nil:
			eqLeft, eqRight = bin.Right, bin.Left
		default:
			rest = append(rest, c)
			continue
		}
		// The remaining conjuncts (before and after) form the residual.
		_ = i
	}
	if eqLeft == nil {
		return nil, nil, nil, false
	}
	return eqLeft, eqRight, joinConjuncts(rest), true
}

// rewriteAggregateRefs replaces aggregate calls (and group-by expressions)
// in e with references to the aggregate node's output columns.
func rewriteAggregateRefs(e sql.Expr, agg *AggregateNode) sql.Expr {
	if agg == nil || e == nil {
		return e
	}
	replacements := map[string]string{}
	for _, a := range agg.Aggs {
		replacements[a.Name] = a.Name
	}
	for _, g := range agg.GroupBy {
		replacements[g.Expr.String()] = g.Name
	}
	return substitute(e, replacements)
}

// substitute returns a copy of e in which any sub-expression whose text
// matches a key of replacements becomes a bare column reference to the mapped
// name.
func substitute(e sql.Expr, replacements map[string]string) sql.Expr {
	return rewrite(e, func(e sql.Expr) sql.Expr {
		if name, ok := replacements[e.String()]; ok {
			return &sql.ColumnRef{Name: name}
		}
		return nil
	})
}

// rewrite returns a copy of e, top down: where replace returns an expression
// it takes the place of the sub-expression replace was given; where replace
// returns nil the node is copied with its operands rewritten. Leaves replace
// declines (literals, parameters, column references) are shared, not copied.
func rewrite(e sql.Expr, replace func(sql.Expr) sql.Expr) sql.Expr {
	if e == nil {
		return nil
	}
	if out := replace(e); out != nil {
		return out
	}
	sub := func(e sql.Expr) sql.Expr { return rewrite(e, replace) }
	subs := func(list []sql.Expr) []sql.Expr {
		out := make([]sql.Expr, len(list))
		for i, item := range list {
			out[i] = sub(item)
		}
		return out
	}
	switch e := e.(type) {
	case *sql.BinaryExpr:
		return &sql.BinaryExpr{Op: e.Op, Left: sub(e.Left), Right: sub(e.Right)}
	case *sql.UnaryExpr:
		return &sql.UnaryExpr{Op: e.Op, Operand: sub(e.Operand)}
	case *sql.IsNullExpr:
		return &sql.IsNullExpr{Operand: sub(e.Operand), Negate: e.Negate}
	case *sql.BetweenExpr:
		return &sql.BetweenExpr{Operand: sub(e.Operand), Low: sub(e.Low), High: sub(e.High), Negate: e.Negate}
	case *sql.InExpr:
		return &sql.InExpr{Operand: sub(e.Operand), List: subs(e.List), Negate: e.Negate}
	case *sql.FuncCall:
		return &sql.FuncCall{Name: e.Name, Args: subs(e.Args), Star: e.Star}
	default:
		return e
	}
}
