//go:build race

package main

// raceBuild is set when the binary is built with -race; its numbers are
// then meaningless and the benchmark refuses to report them.
const raceBuild = true
