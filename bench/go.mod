// The benchmark is a module of its own so that the repository's
// `go build ./...` and `go test ./...` never compile it: a later change
// to an internal API cannot be blocked by benchmark code it may not edit.
// Its import path sits under acceptableads/, which is what lets it import
// the repository's internal packages through the replace below.
module acceptableads/bench

go 1.22

require acceptableads v0.0.0

replace acceptableads => ../
