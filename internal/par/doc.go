// Package par is the parallel experiment runner. Every figure and table of
// the evaluation is a grid of independent, deterministic, seeded
// simulations (benchmark × configuration cells); RunCells fans them out
// across a bounded number of goroutines (GOMAXPROCS by default) and
// returns their results in input order, so the regenerated tables are
// byte-identical to a sequential run regardless of scheduling.
// RunCellsOrdered changes only the order cells start in.
package par
