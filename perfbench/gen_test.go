package main

import (
	"reflect"
	"testing"
)

func ownOf(sess int) []int {
	var own []int
	for i := sess; i < txnObjects; i += 2 * 90 {
		for j := i; j < i+90 && j < txnObjects; j++ {
			own = append(own, j)
		}
	}
	return own
}

func sequence(seed int64, sess, n int) [][]touch {
	g := newTxnGen(seed, sess, ownOf(sess))
	out := make([][]touch, n)
	for i := range out {
		out[i] = g.next()
	}
	return out
}

func TestTxnGenSameSeedSameSequence(t *testing.T) {
	a, b := sequence(7, 0, 500), sequence(7, 0, 500)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed produced different transactions")
	}
	if reflect.DeepEqual(a, sequence(8, 0, 500)) {
		t.Error("different seeds produced the same transactions")
	}
	if reflect.DeepEqual(a, sequence(7, 1, 500)) {
		t.Error("the two sessions produced the same transactions")
	}
}

func TestTxnGenShape(t *testing.T) {
	own := map[int]bool{}
	for _, o := range ownOf(1) {
		own[o] = true
	}
	for _, ts := range sequence(3, 1, 2000) {
		writes := 0
		for i, x := range ts {
			if i > 0 && ts[i-1].obj >= x.obj {
				t.Fatalf("touches not strictly ascending: %v", ts)
			}
			if x.obj < 0 || x.obj >= txnObjects {
				t.Fatalf("object %d out of range", x.obj)
			}
			if x.write {
				writes++
				if !own[x.obj] {
					t.Fatalf("write to object %d outside the session's partition", x.obj)
				}
			}
		}
		if writes != txnWrites || len(ts) > txnReads+txnWrites {
			t.Fatalf("transaction %v has %d writes, %d touches", ts, writes, len(ts))
		}
	}
}
