package wcet

// IPETProblem is the problem IPET solves for a region.
var IPETProblem = ipetProblem
