package eventq

import "testing"

// fuzzRef is the executable specification of the (time, seq) total
// order: a flat slice popped by linear minimum scan. O(n) per pop is
// irrelevant at fuzz sizes and leaves no room for the bugs a clever
// structure could share with the implementation under test.
type fuzzRef struct {
	entries []monoEntry[uint32]
	seq     uint64
}

func (r *fuzzRef) push(t float64, v uint32) {
	r.entries = append(r.entries, monoEntry[uint32]{time: t, seq: r.seq, v: v})
	r.seq++
}

func (r *fuzzRef) pop() (float64, uint32, bool) {
	if len(r.entries) == 0 {
		return 0, 0, false
	}
	best := 0
	for i := 1; i < len(r.entries); i++ {
		if entryLess(r.entries[i], r.entries[best]) {
			best = i
		}
	}
	e := r.entries[best]
	r.entries = append(r.entries[:best], r.entries[best+1:]...)
	return e.time, e.v, true
}

func (r *fuzzRef) reset() { r.entries = r.entries[:0]; r.seq = 0 }

// delayScales maps the two scale bits of an op byte to a delay unit.
// The spread — sub-millisecond to 1e7 — is what drives the queue
// through both representations: a single scale in order stays in the
// sorted run, mixed scales invert and, once enough is pending, hand
// off to the heap.
var delayScales = [4]float64{0.001, 0.13, 37, 1e7}

// FuzzMonotoneOrder feeds one arbitrary (but contract-respecting)
// push/pop/reset sequence to a Monotone and to the naive reference, and
// requires both to pop identical (time, value) sequences, mid-stream
// and on the final drain. This is the fuzz extension of the
// differential suite: whichever representation an arbitrary delay
// distribution lands the queue in, the exact (time, seq) total order
// must survive.
//
// Input grammar: two bytes per operation. Low two bits of the first
// byte select the op (0/1 push, 2 reset, 3 pop); bits 2-3 select the
// delay scale; the second byte is the delay magnitude. Pushes happen at
// the monotone floor (the last popped time) plus the delay, so every
// generated sequence respects the queue's monotonicity contract.
func FuzzMonotoneOrder(f *testing.F) {
	f.Add([]byte{})
	// Zero delays: pure FIFO appends, run mode throughout.
	f.Add([]byte{0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x03, 0x00})
	// Small mixed delays with interleaved pops: binary-insert run path.
	f.Add([]byte{0x00, 0x05, 0x04, 0x01, 0x00, 0x09, 0x03, 0x00, 0x04, 0x02, 0x03, 0x00})
	// A burst big enough to hand off to the heap, then a huge-scale
	// push, then a full drain.
	f.Add(func() []byte {
		var b []byte
		for i := 0; i < 80; i++ {
			b = append(b, 0x04, byte(97*i%251))
		}
		b = append(b, 0x0c, 0xff)
		for i := 0; i < 81; i++ {
			b = append(b, 0x03, 0x00)
		}
		return b
	}())
	// Reset in the middle of a mixed run, then fresh traffic.
	f.Add([]byte{0x04, 0x40, 0x04, 0x01, 0x04, 0x80, 0x02, 0x00, 0x04, 0x10, 0x03, 0x00})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			t.Skip("bounded: the reference pop is quadratic")
		}
		adaptive := NewMonotone[uint32](0)
		ref := &fuzzRef{}

		now := 0.0 // the monotone floor: time of the last pop
		var nextVal uint32

		popCheck := func(where string) {
			at, av, aok := adaptive.Pop()
			rt, rv, rok := ref.pop()
			if aok != rok {
				t.Fatalf("%s: ok diverged: adaptive=%v ref=%v", where, aok, rok)
			}
			if !rok {
				return
			}
			if at != rt || av != rv {
				t.Fatalf("%s: adaptive (t=%v v=%d, heaped=%v) != ref (t=%v v=%d)",
					where, at, av, adaptive.heaped, rt, rv)
			}
			now = rt
		}

		for i := 0; i+1 < len(data); i += 2 {
			op, mag := data[i], data[i+1]
			switch op & 0x3 {
			case 3:
				popCheck("mid-stream")
			case 2:
				adaptive.Reset()
				ref.reset()
				now = 0
			default:
				d := float64(mag) * delayScales[(op>>2)&0x3]
				adaptive.Push(now+d, nextVal)
				ref.push(now+d, nextVal)
				nextVal++
			}
		}

		if n := len(adaptive.items) - adaptive.head; n != len(ref.entries) {
			t.Fatalf("pending diverged: adaptive=%d ref=%d", n, len(ref.entries))
		}
		for len(ref.entries) > 0 {
			popCheck("drain")
		}
		popCheck("empty")
	})
}
