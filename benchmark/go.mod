// The benchmark is a module of its own so that the repository's tier-1
// `go build ./... && go test ./...` neither builds nor depends on it.
// Only ./layers (the in-process traced run) imports the repository; the
// harness in this directory talks to the real binaries over HTTP alone.
module dwcomplement/benchmark

go 1.23

require dwcomplement v0.0.0

replace dwcomplement => ../
