// Package dyno reproduces "Dynamically Optimizing Queries over Large
// Scale Data Platforms" (Karanasos et al., SIGMOD 2014): the DYNO
// system, which optimizes multi-join queries over Hadoop data with
// pilot runs, a Columbia-style cost-based join enumerator, and runtime
// re-optimization at MapReduce job boundaries.
//
// The repository contains the full substrate the paper depends on — a
// simulated HDFS and Hadoop cluster with a deterministic virtual clock,
// a MapReduce engine, a Jaql-like compiler with a SQL front end, a
// statistics layer with KMV synopses — plus the evaluation harness that
// regenerates every table and figure of the paper's §6. See DESIGN.md
// for the system inventory and EXPERIMENTS.md for measured results.
//
// cmd/dynobench regenerates the paper's experiments in virtual time,
// and bench/ measures host wall-clock. This package's one test is the
// surface audit (surface_test.go): every exported name has a non-test
// caller outside its package, or a written reason to stay.
package dyno
