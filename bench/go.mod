// The benchmark is a module of its own so that it builds from its own
// directory and stays out of the engine's `go build ./...` and
// `go test ./...`; the replace directive points at the engine it measures.
module fungusdb/bench

go 1.22

require fungusdb v0.0.0

replace fungusdb => ../
