package main

import "testing"

func TestKnownCommand(t *testing.T) {
	for _, tc := range []struct {
		cmd  string
		want bool
	}{
		{"create", true},
		{"info", true},
		{"verify", true},
		{"stats", true},
		{"serve", true},
		{"crashdrill", true},
		{"bogus", false},
		{"help", false},
		{"", false},
		{"Create", false},
		{"-db", false},
	} {
		if got := knownCommand(tc.cmd); got != tc.want {
			t.Errorf("knownCommand(%q) = %v, want %v", tc.cmd, got, tc.want)
		}
	}
}
