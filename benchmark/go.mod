// The benchmark is a module of its own, with its own build file, as the
// form BENCHMARK.json follows requires of a benchmark that is compiled; the
// root module's `go build ./...` and `go test ./...` therefore do not see it
// (run `go vet ./... && go test ./...` here). Its module path sits under
// `stabilizer/`, which is what lets it import stabilizer/internal/... for
// the layer probes.
module stabilizer/benchmark

go 1.22

require stabilizer v0.0.0

replace stabilizer => ../
