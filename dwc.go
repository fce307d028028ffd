// Package dwc is the public API of dwcomplement, a from-scratch Go
// implementation of
//
//	D. Laurent, J. Lechtenbörger, N. Spyratos, G. Vossen:
//	"Complements for Data Warehouses", Proc. 15th ICDE, 1999.
//
// A data warehouse is a set of materialized PSJ (projection–selection–
// join) views over base relations spread across decoupled source
// databases. This library computes a *complement* of the warehouse — the
// auxiliary views that capture exactly the information the views are
// missing (Proposition 2.2 without constraints; Theorem 2.2 exploiting
// keys and inclusion dependencies) — and uses it to make the warehouse
// *independent*:
//
//   - query-independent: any query against the sources is answered from
//     warehouse relations alone, via the automatic rewriting Q̂ = Q ∘ W⁻¹
//     (Theorem 3.1);
//   - update-independent (self-maintainable): source updates are applied
//     to the warehouse incrementally from the reported changes and the
//     warehouse's own state, never by querying the sources (Theorem 4.1).
//
// The typical pipeline:
//
//	db := dwc.NewDatabase()
//	db.MustAddSchema(dwc.NewSchema("Sale", "item:string", "clerk:string"))
//	db.MustAddSchema(dwc.NewSchema("Emp", "clerk:string", "age:int").WithKey("clerk"))
//	views := dwc.MustNewViewSet(db,
//	    dwc.NewView("Sold", []string{"item", "clerk", "age"}, nil, "Sale", "Emp"))
//
//	w, err := dwc.BuildWarehouse(db, views, dwc.Theorem22(), initialState)
//	rows, err := dwc.Answer(ctx, w, dwc.MustParseExpr("pi{clerk}(Sale) union pi{clerk}(Emp)"))
//	for batch := range rows.Batches() { ... }   // column-major: the typed row pages themselves, layout and dictionary per page
//
//	m := dwc.NewMaintainer(w.Complement())
//	stats, err := dwc.Refresh(ctx, m, w, update)   // warehouse-only, incremental
//
// A star warehouse (Section 5, BuildStarWarehouse) is the same Warehouse:
// each union-integrated fact table is one stored relation, W⁻¹ reads a
// site's part of it by origin selection, and Answer, Refresh and
// Maintainer.AddConsumer (aggregate summary tables) serve it unchanged.
//
// Every relation — a source, a view, a complement, a query answer — is
// stored one way: pages of 1 024 rows, each page one typed vector per
// attribute (int64, float64, bool, dictionary-coded strings, or the values
// themselves where a page's column mixes kinds) with a null bitmap, shared
// copy-on-write between versions. A Tuple is built from a page when it is
// asked for (Relation.All, Rows.Sorted); Rows.Batches hands out the pages.
//
// The heavy lifting lives in the internal packages (relation, algebra,
// constraint, catalog, view, core, warehouse, maintain, source, star,
// parse, workload); this package re-exports the surface a downstream user
// needs. See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// reproduction of every figure and example in the paper.
package dwc

import (
	"dwcomplement/internal/aggregate"
	"dwcomplement/internal/algebra"
	"dwcomplement/internal/catalog"
	"dwcomplement/internal/core"
	"dwcomplement/internal/maintain"
	"dwcomplement/internal/parse"
	"dwcomplement/internal/relation"
	"dwcomplement/internal/snapshot"
	"dwcomplement/internal/source"
	"dwcomplement/internal/star"
	"dwcomplement/internal/view"
	"dwcomplement/internal/warehouse"
	"dwcomplement/internal/workload"
)

// Core data-model types.
type (
	// Database is the schema set D with its keys, inclusion dependencies
	// and domain constraints.
	Database = catalog.Database
	// State is a database state d = ⟨r1..rn⟩ over a Database.
	State = catalog.State
	// Update is a set of insertions and deletions against base relations.
	Update = catalog.Update
	// Schema is one base relation schema with an optional key.
	Schema = relation.Schema
	// Relation is an in-memory relation with set semantics, stored as
	// typed column pages.
	Relation = relation.Relation
	// Tuple is a row of values, built from a relation's pages on demand.
	Tuple = relation.Tuple
	// Value is a typed attribute value.
	Value = relation.Value
	// AttrSet is a set of attribute names.
	AttrSet = relation.AttrSet
)

// View and algebra types.
type (
	// View is a PSJ view definition π_Z(σ_c(R1 ⋈ … ⋈ Rk)).
	View = view.PSJ
	// ViewSet is a warehouse definition V = {V1..Vk}.
	ViewSet = view.Set
	// Expr is a relational algebra expression.
	Expr = algebra.Expr
	// Cond is a selection condition.
	Cond = algebra.Cond
	// Spec is a parsed .dw warehouse specification.
	Spec = parse.Spec
)

// Warehouse-side types.
type (
	// Complement is a computed warehouse complement with its inverse W⁻¹.
	Complement = core.Complement
	// ComplementEntry is the complement data for one base relation.
	ComplementEntry = core.Entry
	// Options selects Proposition 2.2 vs Theorem 2.2 behaviour.
	Options = core.Options
	// Warehouse is a materialized independent warehouse W = V ∪ C.
	Warehouse = warehouse.Warehouse
	// Maintainer refreshes warehouses incrementally and source-free.
	Maintainer = maintain.Maintainer
	// RefreshStats reports what one refresh changed.
	RefreshStats = maintain.RefreshStats
	// RefreshSpan traces one refreshed relation's propagation: delta
	// sizes, applied tuples, and propagation wall time.
	RefreshSpan = maintain.RefreshSpan
	// Delta is an insert/delete change set for one relation.
	Delta = maintain.Delta
	// MaintenanceExprs is a symbolically derived maintenance program.
	MaintenanceExprs = maintain.MaintenanceExprs
)

// Decoupled-source simulation types (Figure 1's architecture).
type (
	// Source is an autonomous source database that reports its changes.
	Source = source.Source
	// Integrator maintains the warehouse from source notifications.
	Integrator = source.Integrator
	// Environment is a complete sources+integrator+warehouse deployment.
	Environment = source.Environment
)

// Star-schema types (Section 5). A star warehouse is a Warehouse: its
// complement stores each union-integrated fact table as one relation.
type (
	// FactSpec declares a union-integrated fact table.
	FactSpec = star.FactSpec
	// FactPart is one site's contribution to a fact table.
	FactPart = star.FactPart
	// Business is the TPC-D-like multi-site scenario of Section 5.
	Business = star.Business
)

// Value constructors.
var (
	// Int wraps an integer value.
	Int = relation.Int
	// Float wraps a floating-point value.
	Float = relation.Float
	// Str wraps a string value.
	Str = relation.String_
	// Bool wraps a boolean value.
	Bool = relation.Bool
	// Null is the NULL value constructor.
	Null = relation.Null
)

// Schema and database construction.
var (
	// NewDatabase returns an empty database definition.
	NewDatabase = catalog.NewDatabase
	// NewSchema builds a schema from "name:type" attribute specs.
	NewSchema = relation.NewSchema
	// NewUpdate returns an empty update.
	NewUpdate = catalog.NewUpdate
	// NewRelation creates an empty relation over attribute names.
	NewRelation = relation.New
)

// View construction.
var (
	// NewView constructs a named PSJ view; nil cond means σ_true.
	NewView = view.NewPSJ
	// NewViewSet validates and collects views into a warehouse definition.
	NewViewSet = view.NewSet
	// MustNewViewSet is NewViewSet that panics on error.
	MustNewViewSet = view.MustNewSet
	// ViewFromExpr normalizes a general algebra expression into PSJ form.
	ViewFromExpr = view.FromExpr
)

// Parsing.
var (
	// ParseExpr parses a relational algebra expression
	// (pi{a}(sigma{x > 3}(R join S)), Unicode accepted).
	ParseExpr = parse.Expr
	// MustParseExpr is ParseExpr that panics on error.
	MustParseExpr = parse.MustExpr
	// ParseCond parses a selection condition.
	ParseCond = parse.Cond
	// ParseSpec parses a .dw warehouse specification.
	ParseSpec = parse.SpecText
	// ParseSpecAt parses a .dw specification with load paths resolved
	// relative to the given directory.
	ParseSpecAt = parse.SpecTextAt
	// ParseUpdateOps parses "insert R(...)" / "delete R(...)" statements
	// into an Update.
	ParseUpdateOps = parse.UpdateOps
	// ParseUpdateOpsAt additionally accepts "update R set ... where ..."
	// modification statements, expanded into delete+insert against the
	// given pre-state (the paper's footnote 1 convention).
	ParseUpdateOpsAt = parse.UpdateOpsAt
)

// The paper's algorithms.
var (
	// Proposition22 configures complement computation without integrity
	// constraints (Proposition 2.2).
	Proposition22 = core.Proposition22
	// Theorem22 configures complement computation with keys, inclusion
	// dependencies and static emptiness detection (Theorem 2.2).
	Theorem22 = core.Theorem22
	// ComputeComplement derives the complement of a view set.
	ComputeComplement = core.Compute
	// BuildWarehouse computes the complement and materializes the
	// independent warehouse in one call (the Section 5 pipeline).
	BuildWarehouse = warehouse.Build
	// NewWarehouse creates an unmaterialized warehouse from a complement.
	NewWarehouse = warehouse.New
	// NewMaintainer returns an incremental, source-free maintainer.
	NewMaintainer = maintain.NewMaintainer
	// NewVirtualState answers base-relation reads through W⁻¹ against a
	// warehouse state — the pre-state for modification expansion and any
	// other source-free computation. Not safe for concurrent use.
	NewVirtualState = maintain.NewVirtualState
	// DeriveMaintenance symbolically derives maintenance expressions for
	// one warehouse relation (Example 4.1).
	DeriveMaintenance = maintain.Derive
	// TranslateMaintenance rewrites maintenance expressions to reference
	// warehouse relations only.
	TranslateMaintenance = maintain.TranslateToWarehouse
	// InsertionsInto / DeletionsFrom describe update shapes for symbolic
	// maintenance derivation.
	InsertionsInto = maintain.InsertionsInto
	// DeletionsFrom describes deletion-only update shapes.
	DeletionsFrom = maintain.DeletionsFrom
	// Specify runs the full Section 5 algorithm: complement, inverse,
	// query-translation rule, and warehouse-only maintenance programs for
	// every relation and update class.
	Specify = maintain.Specify
)

// Specification is the complete Section 5 warehouse-specification
// document.
type Specification = maintain.Specification

// Decoupled deployment and star schemata.
var (
	// NewEnvironment builds sealed sources, integrator and warehouse.
	NewEnvironment = source.NewEnvironment
	// NewSource creates one autonomous source database.
	NewSource = source.NewSource
	// BuildStarWarehouse assembles a star-schema warehouse with union-
	// integrated fact tables: a Warehouse like any other, answered with
	// Answer and refreshed with Refresh.
	BuildStarWarehouse = star.Build
	// NewBusiness builds the TPC-D-like multi-site scenario.
	NewBusiness = star.NewBusiness
)

// Condition constructors for programmatic view definitions.
var (
	// AttrEq builds the condition attr = value.
	AttrEq = algebra.AttrEqConst
	// AttrCmp builds the condition attr op value.
	AttrCmp = algebra.AttrCmpConst
)

// Comparison operators for AttrCmp.
const (
	OpEq = algebra.OpEq
	OpNe = algebra.OpNe
	OpLt = algebra.OpLt
	OpLe = algebra.OpLe
	OpGt = algebra.OpGt
	OpGe = algebra.OpGe
)

// Aggregate-layer types and constructors (Section 5's OLAP summaries).
type (
	// AggregateView is an incrementally maintained γ-view over a fact
	// table.
	AggregateView = aggregate.View
	// AggregateFunc enumerates count/sum/min/max.
	AggregateFunc = aggregate.Func
)

// The aggregate functions.
const (
	AggCount = aggregate.Count
	AggSum   = aggregate.Sum
	AggMin   = aggregate.Min
	AggMax   = aggregate.Max
)

// NewAggregate declares an aggregate view γ_{groupBy; agg(attr)}(fact).
var NewAggregate = aggregate.New

// Workload generation (random consistent states and update streams, used
// by verification tooling and benchmarks).
type (
	// WorkloadGen generates constraint-respecting random states and
	// updates for a database.
	WorkloadGen = workload.Gen
	// Scenario bundles a database and view set.
	Scenario = workload.Scenario
)

// NewWorkloadGen returns a seeded workload generator for the database.
var NewWorkloadGen = workload.NewGen

// WorkloadStates adapts catalog states for the verification helpers.
var WorkloadStates = workload.States

// Persistence of materialized warehouse states.
var (
	// SaveSnapshot persists a warehouse state map to a file.
	SaveSnapshot = snapshot.SaveFile
	// LoadSnapshot restores a warehouse state map from a file.
	LoadSnapshot = snapshot.LoadFile
	// VerifySnapshot checks a restored state against the expected
	// warehouse layout (e.g. a Complement's Resolver()).
	VerifySnapshot = snapshot.Verify
)

// OptimizeExpr rewrites an expression with selection and projection
// pushdown (semantics-preserving); res supplies relation attribute sets —
// a *Database, a ViewSet resolver, or a Complement resolver all work.
func OptimizeExpr(e Expr, res algebra.Resolver) Expr {
	return algebra.Optimize(e, res)
}
