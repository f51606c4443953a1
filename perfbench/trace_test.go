package main

import "testing"

func TestSelfTimesNested(t *testing.T) {
	// op [0,100) > begin [10,30) > rpc [12,28) > server [14,20)
	spans := []span{
		{id: 1, name: spanOp, start: 0, end: 100},
		{id: 2, parent: 1, name: spanBegin, start: 10, end: 30},
		{id: 3, parent: 2, name: "esm.rpc.begin", start: 12, end: 28},
		{id: 4, parent: 3, name: "esm.server.begin", start: 14, end: 20},
	}
	want := map[uint64]int64{1: 80, 2: 4, 3: 10, 4: 6}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self of span %d = %d, want %d", id, got[id], w)
		}
	}
	var sum int64
	for _, v := range got {
		sum += v
	}
	if sum != 100 {
		t.Errorf("self times sum to %d, want the root's 100", sum)
	}
}

func TestSelfTimesOverlappingChildren(t *testing.T) {
	// Two concurrent children overlap on [30,40) and one sticks out of
	// the parent; only the union inside [0,100) is subtracted.
	spans := []span{
		{id: 1, start: 0, end: 100},
		{id: 2, parent: 1, start: 20, end: 40},
		{id: 3, parent: 1, start: 30, end: 50},
		{id: 4, parent: 1, start: 90, end: 120},
		{id: 5, parent: 1, start: 35, end: 45}, // inside the other two
	}
	got := selfTimes(spans)
	if got[1] != 100-30-10 {
		t.Errorf("self of parent = %d, want 60", got[1])
	}
	if got[4] != 30 {
		t.Errorf("self of childless span = %d, want its duration 30", got[4])
	}
}

func TestCoveredDisjointAndEmpty(t *testing.T) {
	if c := covered(0, 10, nil); c != 0 {
		t.Errorf("covered with no intervals = %d", c)
	}
	if c := covered(0, 100, [][2]int64{{50, 60}, {10, 20}, {-5, 5}}); c != 25 {
		t.Errorf("covered = %d, want 25", c)
	}
}

func TestLayerOf(t *testing.T) {
	for name, want := range map[string]string{
		spanOp: "workload", spanBegin: "core", spanOpen: "core", "esm.rpc.lock": "esm_wire",
		"esm.server.commit": "esm_server", "disk.sync": "disk", spanCheckpoint: "checkpoint",
	} {
		if got := layerOf(name); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", name, got, want)
		}
	}
}
