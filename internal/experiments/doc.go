// Package experiments regenerates every table and figure of the paper's
// evaluation (Sections 3 and 7). Each Fig*/Table* function runs the
// required simulations and returns a Table whose rows mirror the series the
// paper plots; cmd/fadebench prints them and EXPERIMENTS.md records the
// paper-vs-measured comparison. DESIGN.md §3 maps experiment ids to these
// functions.
//
// Every experiment is a grid of independent, deterministic, seeded
// simulations. The functions below enumerate the grid as a flat cell list,
// fan the cells out across cores through par.RunCellsOrdered, and assemble
// rows from the results in cell order — so the tables are byte-identical to
// a sequential run (Options.Parallel = 1) regardless of scheduling. Cells
// start grouped by the instruction stream they draw, so the trace store
// (trace.Open) generates each stream once per sweep.
//
// # Observability
//
// Beyond its formatted rows, every Table carries Cells: one CellMetrics per
// simulation cell holding the run's full registry snapshot (and, when
// Options.TimelineEvery is set, its cycle-sampled timeline). Cell labels
// follow "<monitor>/<benchmark>[/<variant>]". EXPERIMENTS.md maps each
// experiment to the registry metrics its table derives from, and
// docs/METRICS.md documents the metric name space itself.
package experiments
