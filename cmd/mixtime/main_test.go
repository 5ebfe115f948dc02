package main

import (
	"reflect"
	"testing"

	"mixtime"
)

func TestCommunitySizesOrder(t *testing.T) {
	// Sizes: 7→3, 2→2, 5→2, 9→1, 4→2. Larger first; equal sizes by
	// ascending label.
	labels := mixtime.CommunityLabels{7, 5, 2, 7, 9, 4, 5, 2, 7, 4}
	want := []community{{7, 3}, {2, 2}, {4, 2}, {5, 2}, {9, 1}}
	for range 20 { // map order varies between calls; the result must not
		if got := communitySizes(labels); !reflect.DeepEqual(got, want) {
			t.Fatalf("communitySizes = %v, want %v", got, want)
		}
	}
	if got := communitySizes(nil); len(got) != 0 {
		t.Fatalf("no labels: %v", got)
	}
}
