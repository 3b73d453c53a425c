// The benchmark is a module of its own so that the repository's
// `go build ./...` and `go test ./...` never depend on it. The import path
// keeps the `repro/` prefix, which is what lets it import repro/internal/...
module repro/bench

go 1.24

require repro v0.0.0

replace repro => ../
