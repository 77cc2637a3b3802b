package wire

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"testing"

	"timewheel/internal/model"
	"timewheel/internal/oal"
)

// encodeV4 replicates the version-4 frame layout (no Decision/NoDecision
// delta fields, no OALReq/OALFull) so decode back-compat stays covered
// after the v5 bump.
func encodeV4(t *testing.T, m Message) []byte {
	t.Helper()
	e := encoder{buf: make([]byte, 0, 128)}
	e.u8(4)
	e.u8(uint8(m.Kind()))
	h := m.Hdr()
	e.i64(int64(h.From))
	e.i64(int64(h.SendTS))
	switch v := m.(type) {
	case *Proposal:
		e.proposalBody(v)
	case *Decision:
		e.group(v.Group)
		e.oal(&v.OAL)
		e.processList(v.Alive)
		e.u64(uint64(v.Lineage))
	case *NoDecision:
		e.i64(int64(v.Suspect))
		e.u64(uint64(v.GroupSeq))
		e.oal(&v.View)
		e.proposalIDList(v.DPD)
		e.processList(v.Alive)
	case *Join:
		e.processList(v.JoinList)
		e.u64(uint64(v.CoveredOrdinal))
		e.u64(uint64(v.Lineage))
		if v.Forming {
			e.u8(1)
		} else {
			e.u8(0)
		}
	case *Nack:
		e.proposalIDList(v.Missing)
	default:
		t.Fatalf("encodeV4: unsupported %T", m)
	}
	var crc [crcSize]byte
	binary.BigEndian.PutUint32(crc[:], crc32.Checksum(e.buf, crcTable))
	return append(e.buf, crc[:]...)
}

// TestDecodeV4Frames: a peer still speaking wire v4 must interoperate —
// its frames decode, with the delta fields reading as zero ("full oal").
func TestDecodeV4Frames(t *testing.T) {
	h := Header{From: 3, SendTS: 1_000_000}
	msgs := []Message{
		&Proposal{Header: h, ID: oal.ProposalID{Proposer: 3, Seq: 42},
			HDO: 17, Payload: []byte("deposit 100")},
		&Decision{Header: h, Group: model.NewGroup(2, []model.ProcessID{0, 1, 3}),
			OAL: sampleOAL(), Alive: []model.ProcessID{0, 1, 3}, Lineage: 2},
		&NoDecision{Header: h, Suspect: 1, GroupSeq: 5, View: sampleOAL(),
			DPD: []oal.ProposalID{{Proposer: 0, Seq: 7}}, Alive: []model.ProcessID{0, 3}},
		&Join{Header: h, JoinList: []model.ProcessID{0, 1}, CoveredOrdinal: 12, Lineage: 3, Forming: true},
		&Nack{Header: h, Missing: []oal.ProposalID{{Proposer: 0, Seq: 3}}},
	}
	for _, m := range msgs {
		data := encodeV4(t, m)
		got, err := Decode(data)
		if err != nil {
			t.Fatalf("%v: v4 decode: %v", m.Kind(), err)
		}
		if !messagesEqual(m, got) {
			t.Errorf("%v v4 decode mismatch:\n in: %#v\nout: %#v", m.Kind(), m, got)
		}
		switch v := got.(type) {
		case *Decision:
			if v.BaseTS != 0 || v.TruncBelow != 0 {
				t.Errorf("v4 decision decoded with delta fields: %+v", v)
			}
		case *NoDecision:
			if v.BaseTS != 0 || v.TruncBelow != 0 {
				t.Errorf("v4 no-decision decoded with delta fields: %+v", v)
			}
		}
	}
}

func TestScratchDecoderMatchesDecode(t *testing.T) {
	var dc Decoder
	// Two passes: the second exercises scratch reuse over populated
	// slices from the first.
	for pass := 0; pass < 2; pass++ {
		for _, m := range sampleMessages() {
			data := Encode(m)
			got, err := dc.Decode(data)
			if err != nil {
				t.Fatalf("pass %d %v: scratch decode: %v", pass, m.Kind(), err)
			}
			if !messagesEqual(m, got) {
				t.Errorf("pass %d %v scratch mismatch:\n in: %#v\nout: %#v", pass, m.Kind(), m, got)
			}
		}
	}
}

func bigDecision(entries int) *Decision {
	l := oal.NewList()
	for i := 0; i < entries; i++ {
		id := oal.ProposalID{Proposer: model.ProcessID(i % 5), Seq: uint64(i)}
		l.AppendUpdate(id, oal.Semantics{Order: oal.TotalOrder, Atomicity: oal.StrongAtomicity},
			model.Time(1000+i), oal.Ordinal(i/2), oal.AckSet(0b10111))
	}
	l.AppendMembership(model.NewGroup(7, []model.ProcessID{0, 1, 2, 3, 4}))
	return &Decision{
		Header:  Header{From: 2, SendTS: 5_000_000},
		Group:   model.NewGroup(7, []model.ProcessID{0, 1, 2, 3, 4}),
		OAL:     *l,
		Alive:   []model.ProcessID{0, 1, 2, 3, 4},
		Lineage: 7,
	}
}

// TestEncodeDecodeSteadyStateZeroAllocs pins the pooled codec's
// acceptance criterion, 0 allocs/op at steady state, on each path the
// node takes per message. bench_test.go times the same fixtures.
func TestEncodeDecodeSteadyStateZeroAllocs(t *testing.T) {
	dec := bigDecision(32)
	frame := Encode(dec)
	appendBuf := make([]byte, 0, 2*len(frame))
	tagged, sus, delta := taggedDecision(), gossipSuspicion(), deltaDecision(4)
	buf := GetBuffer()
	defer PutBuffer(buf)
	var dc Decoder
	decode := func(frame []byte) {
		if _, err := dc.Decode(frame); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"AppendEncode-decision", func() { appendBuf = AppendEncode(appendBuf[:0], dec) }},
		{"Decode-decision", func() { decode(frame) }},
		{"EncodeTo-decision", func() { EncodeTo(buf, dec) }},
		{"EncodeTo-suspicion", func() { EncodeTo(buf, sus) }},
		{"EncodeTo-causal-decision", func() { EncodeTo(buf, tagged) }},
		{"RoundTrip-delta", func() { decode(EncodeTo(buf, delta)) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// AllocsPerRun's own warm-up call sizes the buffer and scratch.
			if n := testing.AllocsPerRun(200, tc.fn); n != 0 {
				t.Errorf("%v allocs/op, want 0", n)
			}
		})
	}
}

func TestPooledEncodeBuffer(t *testing.T) {
	m := bigDecision(8)
	b := GetBuffer()
	frame := EncodeTo(b, m)
	if !bytes.Equal(frame, Encode(m)) {
		t.Fatal("EncodeTo produced different frame than Encode")
	}
	got, err := Decode(frame)
	if err != nil {
		t.Fatalf("decode pooled frame: %v", err)
	}
	if !messagesEqual(m, got) {
		t.Fatal("pooled frame round trip mismatch")
	}
	PutBuffer(b)
}

func TestCoalesceRoundTrip(t *testing.T) {
	msgs := sampleMessages()
	var c Coalescer
	for _, m := range msgs {
		if !c.TryAppend(m) {
			t.Fatalf("TryAppend(%v) refused under size limit", m.Kind())
		}
	}
	data := c.Datagram()
	if !IsCoalesced(data) {
		t.Fatal("multi-frame datagram not marked coalesced")
	}
	var got []Message
	err := SplitCoalesced(data, func(frame []byte) {
		m, derr := Decode(frame)
		if derr != nil {
			t.Fatalf("sub-frame decode: %v", derr)
		}
		got = append(got, m)
	})
	if err != nil {
		t.Fatalf("split: %v", err)
	}
	if len(got) != len(msgs) {
		t.Fatalf("split %d frames, want %d", len(got), len(msgs))
	}
	for i := range msgs {
		if !messagesEqual(msgs[i], got[i]) {
			t.Errorf("frame %d (%v) mismatch", i, msgs[i].Kind())
		}
	}
}

func TestCoalesceSingleFrameIsBare(t *testing.T) {
	m := bigDecision(4)
	var c Coalescer
	if !c.TryAppend(m) {
		t.Fatal("TryAppend refused single frame")
	}
	data := c.Datagram()
	if IsCoalesced(data) {
		t.Fatal("single frame should not carry the envelope")
	}
	if !bytes.Equal(data, Encode(m)) {
		t.Fatal("bare datagram differs from Encode")
	}
	c.Reset()
	if c.Datagram() != nil || c.Count() != 0 {
		t.Fatal("Reset left pending data")
	}
}

func TestCoalesceEmptyDatagramIsNil(t *testing.T) {
	var c Coalescer
	if c.Datagram() != nil {
		t.Fatal("empty coalescer produced a datagram")
	}
}

func TestCoalesceOverflowRefusesAndRecovers(t *testing.T) {
	big := &Proposal{Header: Header{From: 1, SendTS: 2}, Payload: make([]byte, 20*1024)}
	var c Coalescer
	appended := 0
	for c.TryAppend(big) {
		appended++
		if appended > 10 {
			t.Fatal("size limit never triggered")
		}
	}
	if appended == 0 {
		t.Fatal("first frame must always be accepted")
	}
	before := c.Count()
	data := c.Datagram()
	if len(data) > MaxCoalescedSize+coalesceHeader {
		t.Fatalf("datagram %d bytes exceeds limit", len(data))
	}
	n := 0
	if err := SplitCoalesced(data, func(frame []byte) {
		if _, derr := Decode(frame); derr != nil {
			t.Fatalf("sub-frame decode after refused append: %v", derr)
		}
		n++
	}); err != nil {
		t.Fatalf("split after refused append: %v", err)
	}
	if n != before {
		t.Fatalf("split %d frames, want %d", n, before)
	}
	c.Reset()
	if !c.TryAppend(big) {
		t.Fatal("TryAppend refused after Reset")
	}
}

func TestCoalesceOversizedSingleFrameAccepted(t *testing.T) {
	huge := &Proposal{Header: Header{From: 1}, Payload: make([]byte, MaxCoalescedSize+1024)}
	var c Coalescer
	if !c.TryAppend(huge) {
		t.Fatal("oversized first frame must be accepted alone")
	}
	if c.TryAppend(&Nack{Header: Header{From: 1}}) {
		t.Fatal("second frame must be refused after oversized first")
	}
	got, err := Decode(c.Datagram())
	if err != nil {
		t.Fatalf("decode oversized bare frame: %v", err)
	}
	if !messagesEqual(huge, got) {
		t.Fatal("oversized frame mismatch")
	}
}

// Every single-byte flip in a coalesced datagram must be detected:
// either the envelope fails to split, the frame count changes, or a
// sub-frame fails its CRC.
func TestCoalesceRejectsSingleByteCorruption(t *testing.T) {
	var c Coalescer
	c.TryAppend(bigDecision(3))
	c.TryAppend(&Nack{Header: Header{From: 2, SendTS: 9}, Missing: []oal.ProposalID{{Proposer: 1, Seq: 2}}})
	c.TryAppend(&OALReq{Header: Header{From: 4, SendTS: 10}})
	data := bytes.Clone(c.Datagram())
	for i := range data {
		for _, mask := range []byte{0x01, 0x80, 0xff} {
			mut := bytes.Clone(data)
			mut[i] ^= mask
			clean := true
			frames := 0
			err := SplitCoalesced(mut, func(frame []byte) {
				if _, derr := Decode(frame); derr != nil {
					clean = false
				}
				frames++
			})
			if err == nil && clean && frames == 3 {
				t.Fatalf("flip of byte %d xor %#x went undetected", i, mask)
			}
		}
	}
}

func TestSplitCoalescedRandomBytesNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 5000; i++ {
		buf := make([]byte, rng.Intn(96))
		rng.Read(buf)
		if len(buf) > 0 {
			buf[0] = CoalesceMagic
		}
		_ = SplitCoalesced(buf, func(frame []byte) { _, _ = Decode(frame) })
	}
}
