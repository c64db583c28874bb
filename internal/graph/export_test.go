package graph

// RandomGraph exposes the property-test generator to the external test
// package, whose tests import packages that import this one.
var RandomGraph = randomGraphIn
