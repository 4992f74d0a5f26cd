package core

// OutputLists exposes Run's combine to the external test package, which
// checks it against oracle.Compile on hand-built results.
func OutputLists(r *Result, n, sigma int) [][]Estimate { return outputLists(r, n, sigma) }
