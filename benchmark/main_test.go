package main

import (
	"os"
	"testing"
)

// The library workloads re-execute the running binary; under go test
// that is the test binary, which this turns back into the benchmark.
const childEnv = "RPBENCH_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(realMain(os.Args[1:]))
	}
	os.Exit(m.Run())
}
