package serve

import (
	"bytes"
	"testing"

	"repro/internal/core"
)

// TestBatchByteIdenticalToOneShot is the batch tentpole guarantee: every
// object of a batch frame comes back byte-identical to what one-shot
// cmd/squash produces for the same input, duplicates are answered as
// within-batch shares, and the stats account for the frame.
func TestBatchByteIdenticalToOneShot(t *testing.T) {
	confA := core.DefaultConfig()
	confB := core.DefaultConfig()
	confB.Theta = 0.01
	objA, profA, wantA := buildWorkload(t, 3, confA)
	objB, profB, wantB := buildWorkload(t, 11, confB)
	_, _, wantAB := buildWorkload(t, 3, confB) // objA under confB

	s, addr, stop := startServer(t, Options{Workers: 4})
	defer stop()
	cl, err := DialClient(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cl.Close()

	// A twice (dedup), B once, and A again under confB (distinct config —
	// must NOT be shared with the confA items).
	items := []BatchItem{
		{Obj: objA, Profile: profA, Config: &confA},
		{Obj: objB, Profile: profB, Config: &confB},
		{Obj: objA, Profile: profA, Config: &confA},
		{Obj: objA, Profile: profA, Config: &confB},
	}
	resp, err := cl.Do(&Request{Op: OpBatch, Items: items})
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	if !resp.OK {
		t.Fatalf("batch frame failed: %s", resp.Err)
	}
	if len(resp.Results) != len(items) {
		t.Fatalf("results = %d, want %d", len(resp.Results), len(items))
	}
	for i, r := range resp.Results {
		if !r.OK {
			t.Fatalf("item %d failed: %s", i, r.Err)
		}
	}
	if !bytes.Equal(resp.Results[0].Image, wantA) {
		t.Error("item 0 diverged from one-shot squash")
	}
	if !bytes.Equal(resp.Results[1].Image, wantB) {
		t.Error("item 1 diverged from one-shot squash")
	}
	if !bytes.Equal(resp.Results[2].Image, wantA) {
		t.Error("item 2 (duplicate) diverged from one-shot squash")
	}
	if !resp.Results[2].Shared {
		t.Error("duplicate item 2 not marked as within-batch share")
	}
	if resp.Results[0].Shared || resp.Results[1].Shared {
		t.Error("unique items wrongly marked shared")
	}
	if resp.Results[3].Shared {
		t.Error("same object under a different config must not share a result")
	}
	if !bytes.Equal(resp.Results[3].Image, wantAB) {
		t.Error("item 3 diverged from one-shot squash under its own config")
	}

	snap := s.StatsSnapshot()
	if snap.BatchFrames != 1 || snap.BatchObjects != 4 || snap.BatchShared != 1 {
		t.Errorf("batch stats = frames %d objects %d shared %d, want 1/4/1",
			snap.BatchFrames, snap.BatchObjects, snap.BatchShared)
	}

	// A repeat of the whole frame must be served from the warm result
	// cache, still byte-identical.
	resp2, err := cl.Do(&Request{Op: OpBatch, Items: items})
	if err != nil {
		t.Fatalf("repeat batch: %v", err)
	}
	for i, r := range resp2.Results {
		if !r.OK {
			t.Fatalf("repeat item %d failed: %s", i, r.Err)
		}
		if !r.Cached && !r.Shared {
			t.Errorf("repeat item %d not served warm (cached=%v shared=%v)", i, r.Cached, r.Shared)
		}
		if !bytes.Equal(r.Image, resp.Results[i].Image) {
			t.Errorf("repeat item %d bytes differ from first batch", i)
		}
	}
}

// TestBatchErrorIsolation: one bad object must not poison the batch — its
// siblings still squash, byte-identical, and only the bad item errors.
func TestBatchErrorIsolation(t *testing.T) {
	conf := core.DefaultConfig()
	obj, prof, want := buildWorkload(t, 5, conf)

	s, addr, stop := startServer(t, Options{Workers: 2})
	defer stop()
	cl, err := DialClient(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cl.Close()

	items := []BatchItem{
		{Obj: obj, Profile: prof},
		{Obj: []byte("garbage"), Profile: []byte("garbage")},
		{Bench: "no-such-benchmark"},
		{}, // neither payload nor bench
		{Obj: obj, Profile: prof},
	}
	resp, err := cl.Do(&Request{Op: OpBatch, Items: items})
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	if !resp.OK {
		t.Fatalf("frame-level failure for a batch with bad items: %s", resp.Err)
	}
	if len(resp.Results) != len(items) {
		t.Fatalf("results = %d, want %d", len(resp.Results), len(items))
	}
	for _, i := range []int{1, 2, 3} {
		if resp.Results[i].OK {
			t.Errorf("bad item %d reported OK", i)
		}
		if resp.Results[i].Err == "" {
			t.Errorf("bad item %d has no error message", i)
		}
	}
	for _, i := range []int{0, 4} {
		if !resp.Results[i].OK {
			t.Fatalf("good item %d poisoned by batch siblings: %s", i, resp.Results[i].Err)
		}
		if !bytes.Equal(resp.Results[i].Image, want) {
			t.Errorf("good item %d diverged from one-shot squash", i)
		}
	}
	if !resp.Results[4].Shared {
		t.Error("duplicate good item not shared despite failing siblings")
	}
	if snap := s.StatsSnapshot(); snap.Errors != 0 {
		// Item-level failures are not frame-level request errors.
		t.Errorf("request errors = %d after isolated item failures", snap.Errors)
	}
}

// TestBatchValidation: zero-object and oversized batches are frame-level
// errors that leave the connection usable.
func TestBatchValidation(t *testing.T) {
	_, addr, stop := startServer(t, Options{Workers: 1})
	defer stop()
	cl, err := DialClient(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cl.Close()

	resp, err := cl.Do(&Request{Op: OpBatch})
	if err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	if resp.OK || resp.Err == "" {
		t.Fatalf("empty batch accepted: %+v", resp)
	}

	over := make([]BatchItem, MaxBatchItems+1)
	resp, err = cl.Do(&Request{Op: OpBatch, Items: over})
	if err != nil {
		t.Fatalf("oversized batch: %v", err)
	}
	if resp.OK || resp.Err == "" {
		t.Fatalf("oversized batch accepted: %+v", resp)
	}

	if resp, err := cl.Do(&Request{Op: OpPing}); err != nil || !resp.OK {
		t.Fatalf("connection unusable after rejected batches: resp=%+v err=%v", resp, err)
	}
}

// TestBatchDedupWithCacheDisabled: within-batch sharing must not depend on
// the global result cache being enabled.
func TestBatchDedupWithCacheDisabled(t *testing.T) {
	conf := core.DefaultConfig()
	obj, prof, want := buildWorkload(t, 7, conf)

	_, addr, stop := startServer(t, Options{Workers: 2, CacheEntries: -1})
	defer stop()
	cl, err := DialClient(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cl.Close()

	items := []BatchItem{
		{Obj: obj, Profile: prof},
		{Obj: obj, Profile: prof},
		{Obj: obj, Profile: prof},
	}
	resp, err := cl.Do(&Request{Op: OpBatch, Items: items})
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	shared := 0
	for i, r := range resp.Results {
		if !r.OK {
			t.Fatalf("item %d failed: %s", i, r.Err)
		}
		if !bytes.Equal(r.Image, want) {
			t.Errorf("item %d diverged from one-shot squash", i)
		}
		if r.Shared {
			shared++
		}
	}
	if shared != 2 {
		t.Errorf("shared = %d of 3 identical items, want 2", shared)
	}
}
