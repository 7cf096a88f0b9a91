package cache

import (
	"reflect"
	"testing"
)

// TestImageOmitsZeroArrays: a cold array's image carries no arrays at
// all, restoring it clears a populated array, and an array that is zero
// only in some of its fields (here: a line whose tag is 0) keeps the
// non-zero ones and still round-trips.
func TestImageOmitsZeroArrays(t *testing.T) {
	g := geom32K()
	cold := NewWithPolicy(g, SRRIP).Image()
	if cold.Tags != nil || cold.States != nil || cold.LastUse != nil || cold.RRPVs != nil {
		t.Fatalf("cold image carries arrays: %+v", cold)
	}

	warm := NewWithPolicy(g, SRRIP)
	for set := 0; set < 16; set++ {
		warm.Insert(set, set%2, uint64(100+set), Exclusive)
	}
	warm.Access(3, AnyPartition, 103)
	if err := warm.SetImage(cold); err != nil {
		t.Fatal(err)
	}
	if warm.ValidLines() != 0 {
		t.Errorf("restoring a cold image left %d valid lines", warm.ValidLines())
	}
	if got := warm.Image(); !reflect.DeepEqual(got, cold) {
		t.Errorf("restored cold image re-captures as %+v", got)
	}

	zeroTag := NewWithPolicy(g, SRRIP)
	zeroTag.Insert(5, 1, 0, Modified)
	img := zeroTag.Image()
	if img.Tags != nil || img.States == nil || img.LastUse == nil || img.RRPVs == nil {
		t.Fatalf("tag-0 line: omitted arrays wrong: tags %v states %v lastUse %v rrpvs %v",
			img.Tags != nil, img.States != nil, img.LastUse != nil, img.RRPVs != nil)
	}
	other := NewWithPolicy(g, SRRIP)
	other.Insert(5, 1, 77, Shared) // same way, non-zero tag
	if err := other.SetImage(img); err != nil {
		t.Fatal(err)
	}
	if _, hit := other.Probe(5, 1, 0); !hit {
		t.Error("restored tag-0 line misses")
	}
	if _, hit := other.Probe(5, 1, 77); hit {
		t.Error("the overwritten line survived the restore")
	}
	if got := other.Image(); !reflect.DeepEqual(got, img) {
		t.Error("restored image re-captures differently")
	}
}

// TestImageRejectsWrongLength: a present array must match the
// geometry, whichever array it is, and the rejecting cache is left as
// it was.
func TestImageRejectsWrongLength(t *testing.T) {
	g := geom32K()
	src := NewWithPolicy(g, SRRIP)
	for set := 0; set < 8; set++ {
		src.Insert(set, 0, uint64(set+1), Shared)
	}
	for name, damage := range map[string]func(*Image){
		"tags":     func(s *Image) { s.Tags = s.Tags[:4] },
		"states":   func(s *Image) { s.States = append(s.States, 0) },
		"last use": func(s *Image) { s.LastUse = s.LastUse[1:] },
		"rrpvs":    func(s *Image) { s.RRPVs = s.RRPVs[:len(s.RRPVs)-1] },
	} {
		img := src.Image()
		damage(&img)
		dst := NewWithPolicy(g, SRRIP)
		dst.Insert(2, 1, 9, Modified)
		before := dst.Image()
		if err := dst.SetImage(img); err == nil {
			t.Errorf("%s: accepted an image array of the wrong length", name)
		}
		if !reflect.DeepEqual(dst.Image(), before) {
			t.Errorf("%s: a rejected image changed the cache", name)
		}
	}
}
