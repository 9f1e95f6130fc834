//go:build race

package main

// raceBuild slows the smoke tests' load down: the race detector makes the
// program several times slower, and a two-core box then cannot carry the
// workloads' real rates.
const raceBuild = true
