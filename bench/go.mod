// The benchmark is a module of its own so that it builds with one command
// from its own directory and stays out of the root module's ./... patterns.
// Its import path keeps the repro/ prefix, which is what lets it import the
// program's internal packages.
module repro/bench

go 1.22

require repro v0.0.0

replace repro => ../
