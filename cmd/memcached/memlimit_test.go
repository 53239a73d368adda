package main

import "testing"

func TestHeapLimit(t *testing.T) {
	const mib = 1 << 20
	for _, tc := range []struct {
		name       string
		maxBytes   int64
		gomemlimit string
		live, over uint64
		want       int64
	}{
		{"follows the budget", 64 * mib, "", 10 * mib, 2 * mib, 80 * mib},
		{"before the first collection", 64 * mib, "", 0, 2 * mib, 80 * mib},
		{"live heap above the budget", 64 * mib, "", 100 * mib, 0, 125 * mib},
		{"full cache of 1 KiB items", 64 * mib, "", 70 * mib, 10 * mib, 97*mib + mib/2},
		{"unlimited store", 0, "", 100 * mib, 10 * mib, 0},
		{"negative budget", -1, "", 0, 0, 0},
		{"operator set GOMEMLIMIT", 64 * mib, "1GiB", 100 * mib, 10 * mib, 0},
	} {
		if got := heapLimit(tc.maxBytes, tc.gomemlimit, tc.live, tc.over); got != tc.want {
			t.Errorf("%s: heapLimit(%d, %q, %d, %d) = %d, want %d", tc.name, tc.maxBytes, tc.gomemlimit, tc.live, tc.over, got, tc.want)
		}
	}
}
