package loopnet

import "testing"

func TestDriveKVRepeatsExactly(t *testing.T) {
	a, err := DriveKV(7, 4000, 128)
	if err != nil {
		t.Fatal(err)
	}
	b, err := DriveKV(7, 4000, 128)
	if err != nil {
		t.Fatal(err)
	}
	if a.Frames != b.Frames || a.Frames == 0 {
		t.Fatalf("frame counts differ across two runs of one seed: %d vs %d", a.Frames, b.Frames)
	}
}

func TestBatchingSendsFewerFrames(t *testing.T) {
	batched, err := DriveKV(7, 4000, 128)
	if err != nil {
		t.Fatal(err)
	}
	single, err := DriveKV(7, 4000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if batched.Frames >= single.Frames {
		t.Fatalf("cap 128 sent %d frames, cap 1 sent %d: batching must send strictly fewer", batched.Frames, single.Frames)
	}
	t.Logf("frames per op: cap 128 = %.2f, cap 1 = %.2f",
		float64(batched.Frames)/float64(batched.Ops), float64(single.Frames)/float64(single.Ops))
}
