// The benchmark is its own module so that `go build ./...` and
// `go test ./...` at the repository root neither build nor run it;
// the replace directive keeps it on the checkout's own packages.
module faasnap/benchmark

go 1.22

require faasnap v0.0.0

replace faasnap => ../
