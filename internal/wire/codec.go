package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"sync"

	"timewheel/internal/model"
	"timewheel/internal/oal"
)

// Version is the wire-format version byte leading every encoded message.
// Version 2 added the durable-recovery fields: Join coverage
// advertisement, Decision lineage, and State delta replay. Version 3
// added the Join forming flag. Version 4 appended a CRC-32C frame check:
// the structural validation (version, kind, length prefixes) catches
// most transport corruption, but a bit flip inside a value field —
// an ordinal, an HDO — used to decode "successfully" into garbage that
// poisoned the protocol state. Now it is rejected at decode and shows
// up in the receiver's drop counter. Version 5 added oal delta encoding
// (Decision BaseTS/TruncBelow, NoDecision BaseTS) and the OALReq/OALFull
// baseline-repair messages; v4 frames still decode (the delta fields
// read as zero, i.e. "full oal"). Version 6 added the group-tagged
// coalesced envelope (GroupMagic, coalesce.go) so one socket can carry
// frames for many timewheel groups; the frame format itself is
// unchanged and v4/v5 frames still decode. Version 7 piggybacks the
// causal trace context (Causal: origin member, wheel slot, originating
// send-TS — 16 bytes) on every frame, encoded immediately after the
// header's SendTS; v4–v6 frames still decode (Ctx reads as zero).
// Version 8 added the Suspicion/Refute gossip kinds for k-successor
// surveillance. Every frame is encoded at Version; Decode still accepts
// v4–v7 frames.
const Version = 8

// compatVersion is the version byte the oldest-layout kinds carry. There
// is one encoding, so it is Version for every kind.
const compatVersion = Version

// minVersion is the oldest wire format Decode still accepts.
const minVersion = 4

// ErrTruncated reports a message that ends before its declared contents.
var ErrTruncated = errors.New("wire: truncated message")

// ErrBadVersion reports an unsupported wire-format version.
var ErrBadVersion = errors.New("wire: unsupported version")

// ErrBadKind reports an unknown message kind byte.
var ErrBadKind = errors.New("wire: unknown message kind")

// ErrChecksum reports a frame whose CRC-32C trailer does not match its
// contents — corruption in transit.
var ErrChecksum = errors.New("wire: checksum mismatch")

// crcTable is the Castagnoli polynomial (hardware-accelerated on
// amd64/arm64); crcSize is the frame trailer length.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

const crcSize = 4

// maxListLen bounds decoded list lengths to keep a corrupt length prefix
// from causing huge allocations.
const maxListLen = 1 << 20

// maxPooledBuffer keeps oversized frames (large state transfers) from
// pinning memory in the encode-buffer pool.
const maxPooledBuffer = 64 * 1024

// Buffer is a pooled encode buffer for the send hot path: obtain one
// with GetBuffer, fill it with EncodeTo, hand the frame to a transport
// (transports copy synchronously before returning), then recycle it
// with PutBuffer.
type Buffer struct{ B []byte }

var bufferPool = sync.Pool{New: func() any { return &Buffer{B: make([]byte, 0, 2048)} }}

// GetBuffer returns an empty pooled encode buffer.
func GetBuffer() *Buffer { return bufferPool.Get().(*Buffer) }

// PutBuffer recycles b. The caller must no longer reference b.B.
func PutBuffer(b *Buffer) {
	if cap(b.B) > maxPooledBuffer {
		return
	}
	b.B = b.B[:0]
	bufferPool.Put(b)
}

// EncodeTo serialises m into b, replacing its contents, and returns the
// encoded frame (aliasing b.B).
func EncodeTo(b *Buffer, m Message) []byte {
	b.B = AppendEncode(b.B[:0], m)
	return b.B
}

// Encode serialises m into a fresh byte slice.
func Encode(m Message) []byte {
	return AppendEncode(make([]byte, 0, 128), m)
}

// AppendEncode serialises m, appends the frame to dst and returns the
// extended slice. The frame's CRC covers only the appended bytes, so
// frames compose into coalesced datagrams and reused buffers.
func AppendEncode(dst []byte, m Message) []byte {
	e := encoder{buf: dst}
	start := len(dst)
	e.u8(Version)
	e.u8(uint8(m.Kind()))
	h := m.Hdr()
	e.i64(int64(h.From))
	e.i64(int64(h.SendTS))
	// v7: the causal context rides right behind the header, before the
	// kind-specific body, so decode fills it into Header in one place.
	e.u32(h.Ctx.Origin)
	e.u32(h.Ctx.Slot)
	e.i64(h.Ctx.TS)
	switch v := m.(type) {
	case *Proposal:
		e.proposalBody(v)
	case *Decision:
		e.group(v.Group)
		e.oal(&v.OAL)
		e.processList(v.Alive)
		e.u64(uint64(v.Lineage))
		e.i64(int64(v.BaseTS))
		e.u64(uint64(v.TruncBelow))
	case *NoDecision:
		e.i64(int64(v.Suspect))
		e.u64(uint64(v.GroupSeq))
		e.oal(&v.View)
		e.proposalIDList(v.DPD)
		e.processList(v.Alive)
		e.i64(int64(v.BaseTS))
		e.u64(uint64(v.TruncBelow))
	case *Join:
		// JoinList stays first: older tooling located it at a fixed
		// offset right after the header.
		e.processList(v.JoinList)
		e.u64(uint64(v.CoveredOrdinal))
		e.u64(uint64(v.Lineage))
		if v.Forming {
			e.u8(1)
		} else {
			e.u8(0)
		}
	case *Reconfig:
		e.processList(v.ReconfigList)
		e.i64(int64(v.LastDecisionTS))
		e.u64(uint64(v.GroupSeq))
		e.oal(&v.View)
		e.proposalIDList(v.DPD)
		e.processList(v.Alive)
	case *Nack:
		e.proposalIDList(v.Missing)
	case *State:
		e.u64(uint64(v.GroupSeq))
		e.bytes(v.AppState)
		e.u64(uint64(v.CoveredOrdinal))
		e.i64(int64(v.SettledTimeTS))
		e.proposalIDList(v.Delivered)
		e.u32(uint32(len(v.FIFONext)))
		for _, f := range v.FIFONext {
			e.i64(int64(f.Proposer))
			e.u64(f.Seq)
		}
		e.u32(uint32(len(v.Pending)))
		for i := range v.Pending {
			p := &v.Pending[i]
			e.i64(int64(p.From))
			e.i64(int64(p.SendTS))
			e.proposalBody(p)
		}
		if v.NoAppState {
			e.u8(1)
		} else {
			e.u8(0)
		}
		e.u32(uint32(len(v.Replay)))
		for i := range v.Replay {
			r := &v.Replay[i]
			e.proposalID(r.ID)
			e.u64(uint64(r.Ordinal))
			e.u8(uint8(r.Sem.Order))
			e.u8(uint8(r.Sem.Atomicity))
			e.i64(int64(r.SendTS))
			e.bytes(r.Payload)
		}
	case *OALReq:
		// Header only.
	case *OALFull:
		e.group(v.Group)
		e.u64(uint64(v.Lineage))
		e.i64(int64(v.DecTS))
		e.oal(&v.OAL)
	case *Suspicion:
		e.i64(int64(v.Suspect))
		e.i64(int64(v.Origin))
		e.u64(v.Incarnation)
		e.i64(int64(v.OriginTS))
	case *Refute:
		e.i64(int64(v.Refuter))
		e.u64(v.Incarnation)
		e.i64(int64(v.OriginTS))
	default:
		panic(fmt.Sprintf("wire: cannot encode %T", m))
	}
	var crc [crcSize]byte
	binary.BigEndian.PutUint32(crc[:], crc32.Checksum(e.buf[start:], crcTable))
	return append(e.buf, crc[:]...)
}

func (e *encoder) proposalBody(v *Proposal) {
	e.proposalID(v.ID)
	e.u8(uint8(v.Sem.Order))
	e.u8(uint8(v.Sem.Atomicity))
	e.u64(uint64(v.HDO))
	e.bytes(v.Payload)
}

// Decoder decodes frames into internal per-kind scratch structs, reusing
// their slices across calls: steady-state decoding of a stable message
// mix performs no allocations. The returned message (and every slice it
// references) is valid only until the next Decode call on the same
// Decoder — callers that retain messages (the live protocol path keeps
// pending no-decisions, for example) must use the package-level Decode.
type Decoder struct {
	proposal   Proposal
	decision   Decision
	noDecision NoDecision
	join       Join
	reconfig   Reconfig
	nack       Nack
	state      State
	oalReq     OALReq
	oalFull    OALFull
	suspicion  Suspicion
	refute     Refute
}

// Decode parses a frame, reusing dc's scratch. See the type comment for
// the aliasing contract.
func (dc *Decoder) Decode(data []byte) (Message, error) {
	return decodeFrame(data, dc)
}

// Decode parses a message previously produced by Encode. The result is
// freshly allocated and safe to retain.
func Decode(data []byte) (Message, error) {
	return decodeFrame(data, nil)
}

func decodeFrame(data []byte, sc *Decoder) (Message, error) {
	if len(data) < crcSize+1 {
		return nil, ErrTruncated
	}
	body, trailer := data[:len(data)-crcSize], data[len(data)-crcSize:]
	if crc32.Checksum(body, crcTable) != binary.BigEndian.Uint32(trailer) {
		return nil, ErrChecksum
	}
	d := decoder{buf: body}
	ver, err := d.u8()
	if err != nil {
		return nil, err
	}
	if ver < minVersion || ver > Version {
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, ver)
	}
	d.ver = ver
	kindB, err := d.u8()
	if err != nil {
		return nil, err
	}
	var h Header
	if from, err := d.i64(); err != nil {
		return nil, err
	} else {
		h.From = model.ProcessID(from)
	}
	if ts, err := d.i64(); err != nil {
		return nil, err
	} else {
		h.SendTS = model.Time(ts)
	}
	// Pre-v7 frames carry no causal context; the explicit zero matters
	// because scratch decoding reuses per-kind structs across frames.
	h.Ctx = Causal{}
	if d.ver >= 7 {
		var err error
		if h.Ctx.Origin, err = d.u32(); err != nil {
			return nil, err
		}
		if h.Ctx.Slot, err = d.u32(); err != nil {
			return nil, err
		}
		if h.Ctx.TS, err = d.i64(); err != nil {
			return nil, err
		}
	}

	switch Kind(kindB) {
	case KindProposal:
		var m *Proposal
		if sc != nil {
			m = &sc.proposal
		} else {
			m = &Proposal{}
		}
		m.Header = h
		if err = d.proposalBody(m); err != nil {
			return nil, err
		}
		return m, d.done()
	case KindDecision:
		var m *Decision
		if sc != nil {
			m = &sc.decision
		} else {
			m = &Decision{}
		}
		m.Header = h
		if m.Group, err = d.group(m.Group.Members); err != nil {
			return nil, err
		}
		if err = d.oal(&m.OAL); err != nil {
			return nil, err
		}
		if m.Alive, err = d.processList(m.Alive); err != nil {
			return nil, err
		}
		var u uint64
		if u, err = d.u64(); err != nil {
			return nil, err
		}
		m.Lineage = model.GroupSeq(u)
		// v4 frames predate delta encoding: zero means "full oal".
		m.BaseTS, m.TruncBelow = 0, 0
		if d.ver >= 5 {
			var ts int64
			if ts, err = d.i64(); err != nil {
				return nil, err
			}
			m.BaseTS = model.Time(ts)
			if u, err = d.u64(); err != nil {
				return nil, err
			}
			m.TruncBelow = oal.Ordinal(u)
		}
		return m, d.done()
	case KindNoDecision:
		var m *NoDecision
		if sc != nil {
			m = &sc.noDecision
		} else {
			m = &NoDecision{}
		}
		m.Header = h
		var s int64
		if s, err = d.i64(); err != nil {
			return nil, err
		}
		m.Suspect = model.ProcessID(s)
		var u uint64
		if u, err = d.u64(); err != nil {
			return nil, err
		}
		m.GroupSeq = model.GroupSeq(u)
		if err = d.oal(&m.View); err != nil {
			return nil, err
		}
		if m.DPD, err = d.proposalIDList(m.DPD); err != nil {
			return nil, err
		}
		if m.Alive, err = d.processList(m.Alive); err != nil {
			return nil, err
		}
		m.BaseTS, m.TruncBelow = 0, 0
		if d.ver >= 5 {
			var ts int64
			if ts, err = d.i64(); err != nil {
				return nil, err
			}
			m.BaseTS = model.Time(ts)
			if u, err = d.u64(); err != nil {
				return nil, err
			}
			m.TruncBelow = oal.Ordinal(u)
		}
		return m, d.done()
	case KindJoin:
		var m *Join
		if sc != nil {
			m = &sc.join
		} else {
			m = &Join{}
		}
		m.Header = h
		if m.JoinList, err = d.processList(m.JoinList); err != nil {
			return nil, err
		}
		var u uint64
		if u, err = d.u64(); err != nil {
			return nil, err
		}
		m.CoveredOrdinal = oal.Ordinal(u)
		if u, err = d.u64(); err != nil {
			return nil, err
		}
		m.Lineage = model.GroupSeq(u)
		var fb uint8
		if fb, err = d.u8(); err != nil {
			return nil, err
		}
		m.Forming = fb != 0
		return m, d.done()
	case KindReconfig:
		var m *Reconfig
		if sc != nil {
			m = &sc.reconfig
		} else {
			m = &Reconfig{}
		}
		m.Header = h
		if m.ReconfigList, err = d.processList(m.ReconfigList); err != nil {
			return nil, err
		}
		var ts int64
		if ts, err = d.i64(); err != nil {
			return nil, err
		}
		m.LastDecisionTS = model.Time(ts)
		var u uint64
		if u, err = d.u64(); err != nil {
			return nil, err
		}
		m.GroupSeq = model.GroupSeq(u)
		if err = d.oal(&m.View); err != nil {
			return nil, err
		}
		if m.DPD, err = d.proposalIDList(m.DPD); err != nil {
			return nil, err
		}
		if m.Alive, err = d.processList(m.Alive); err != nil {
			return nil, err
		}
		return m, d.done()
	case KindNack:
		var m *Nack
		if sc != nil {
			m = &sc.nack
		} else {
			m = &Nack{}
		}
		m.Header = h
		if m.Missing, err = d.proposalIDList(m.Missing); err != nil {
			return nil, err
		}
		return m, d.done()
	case KindState:
		var m *State
		if sc != nil {
			m = &sc.state
		} else {
			m = &State{}
		}
		m.Header = h
		var u uint64
		if u, err = d.u64(); err != nil {
			return nil, err
		}
		m.GroupSeq = model.GroupSeq(u)
		if m.AppState, err = d.bytes(m.AppState); err != nil {
			return nil, err
		}
		if u, err = d.u64(); err != nil {
			return nil, err
		}
		m.CoveredOrdinal = oal.Ordinal(u)
		var sts int64
		if sts, err = d.i64(); err != nil {
			return nil, err
		}
		m.SettledTimeTS = model.Time(sts)
		if m.Delivered, err = d.proposalIDList(m.Delivered); err != nil {
			return nil, err
		}
		var n int
		if n, err = d.listLen(); err != nil {
			return nil, err
		}
		if err = d.need(16 * n); err != nil {
			return nil, err
		}
		m.FIFONext = listFor(m.FIFONext, n)
		for i := range m.FIFONext {
			p, _ := d.i64()
			s, _ := d.u64()
			m.FIFONext[i] = FIFOEntry{Proposer: model.ProcessID(p), Seq: s}
		}
		if n, err = d.listLen(); err != nil {
			return nil, err
		}
		// Each pending proposal is at least header+id+sem+hdo+payload
		// length — guard before sizing the slice.
		if err = d.need(41 * n); err != nil {
			return nil, err
		}
		m.Pending = listFor(m.Pending, n)
		for i := range m.Pending {
			pr := &m.Pending[i]
			var v int64
			if v, err = d.i64(); err != nil {
				return nil, err
			}
			pr.From = model.ProcessID(v)
			if v, err = d.i64(); err != nil {
				return nil, err
			}
			pr.SendTS = model.Time(v)
			if err = d.proposalBody(pr); err != nil {
				return nil, err
			}
		}
		var b uint8
		if b, err = d.u8(); err != nil {
			return nil, err
		}
		m.NoAppState = b != 0
		if n, err = d.listLen(); err != nil {
			return nil, err
		}
		if err = d.need(38 * n); err != nil {
			return nil, err
		}
		m.Replay = listFor(m.Replay, n)
		for i := range m.Replay {
			r := &m.Replay[i]
			if r.ID, err = d.proposalID(); err != nil {
				return nil, err
			}
			if u, err = d.u64(); err != nil {
				return nil, err
			}
			r.Ordinal = oal.Ordinal(u)
			if b, err = d.u8(); err != nil {
				return nil, err
			}
			r.Sem.Order = oal.Order(b)
			if b, err = d.u8(); err != nil {
				return nil, err
			}
			r.Sem.Atomicity = oal.Atomicity(b)
			var ts int64
			if ts, err = d.i64(); err != nil {
				return nil, err
			}
			r.SendTS = model.Time(ts)
			if r.Payload, err = d.bytes(r.Payload); err != nil {
				return nil, err
			}
		}
		return m, d.done()
	case KindOALReq:
		var m *OALReq
		if sc != nil {
			m = &sc.oalReq
		} else {
			m = &OALReq{}
		}
		m.Header = h
		return m, d.done()
	case KindOALFull:
		var m *OALFull
		if sc != nil {
			m = &sc.oalFull
		} else {
			m = &OALFull{}
		}
		m.Header = h
		if m.Group, err = d.group(m.Group.Members); err != nil {
			return nil, err
		}
		var u uint64
		if u, err = d.u64(); err != nil {
			return nil, err
		}
		m.Lineage = model.GroupSeq(u)
		var ts int64
		if ts, err = d.i64(); err != nil {
			return nil, err
		}
		m.DecTS = model.Time(ts)
		if err = d.oal(&m.OAL); err != nil {
			return nil, err
		}
		return m, d.done()
	case KindSuspicion:
		var m *Suspicion
		if sc != nil {
			m = &sc.suspicion
		} else {
			m = &Suspicion{}
		}
		m.Header = h
		var v int64
		if v, err = d.i64(); err != nil {
			return nil, err
		}
		m.Suspect = model.ProcessID(v)
		if v, err = d.i64(); err != nil {
			return nil, err
		}
		m.Origin = model.ProcessID(v)
		if m.Incarnation, err = d.u64(); err != nil {
			return nil, err
		}
		if v, err = d.i64(); err != nil {
			return nil, err
		}
		m.OriginTS = model.Time(v)
		return m, d.done()
	case KindRefute:
		var m *Refute
		if sc != nil {
			m = &sc.refute
		} else {
			m = &Refute{}
		}
		m.Header = h
		var v int64
		if v, err = d.i64(); err != nil {
			return nil, err
		}
		m.Refuter = model.ProcessID(v)
		if m.Incarnation, err = d.u64(); err != nil {
			return nil, err
		}
		if v, err = d.i64(); err != nil {
			return nil, err
		}
		m.OriginTS = model.Time(v)
		return m, d.done()
	default:
		return nil, fmt.Errorf("%w: %d", ErrBadKind, kindB)
	}
}

func (d *decoder) proposalBody(m *Proposal) error {
	var err error
	if m.ID, err = d.proposalID(); err != nil {
		return err
	}
	var b uint8
	if b, err = d.u8(); err != nil {
		return err
	}
	m.Sem.Order = oal.Order(b)
	if b, err = d.u8(); err != nil {
		return err
	}
	m.Sem.Atomicity = oal.Atomicity(b)
	var u uint64
	if u, err = d.u64(); err != nil {
		return err
	}
	m.HDO = oal.Ordinal(u)
	if m.Payload, err = d.bytes(m.Payload); err != nil {
		return err
	}
	return nil
}

type encoder struct{ buf []byte }

func (e *encoder) u8(v uint8)   { e.buf = append(e.buf, v) }
func (e *encoder) u32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *encoder) u64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }
func (e *encoder) i64(v int64)  { e.u64(uint64(v)) }

func (e *encoder) bytes(b []byte) {
	if len(b) > math.MaxUint32 {
		panic("wire: payload too large")
	}
	e.u32(uint32(len(b)))
	e.buf = append(e.buf, b...)
}

func (e *encoder) processList(ps []model.ProcessID) {
	e.u32(uint32(len(ps)))
	for _, p := range ps {
		e.i64(int64(p))
	}
}

func (e *encoder) proposalID(id oal.ProposalID) {
	e.i64(int64(id.Proposer))
	e.u64(id.Seq)
}

func (e *encoder) proposalIDList(ids []oal.ProposalID) {
	e.u32(uint32(len(ids)))
	for _, id := range ids {
		e.proposalID(id)
	}
}

func (e *encoder) group(g model.Group) {
	e.u64(uint64(g.Seq))
	e.processList(g.Members)
}

func (e *encoder) oal(l *oal.List) {
	e.u64(uint64(l.Next))
	e.u32(uint32(len(l.Entries)))
	for i := range l.Entries {
		d := &l.Entries[i]
		e.u8(uint8(d.Kind))
		e.u64(uint64(d.Ordinal))
		e.proposalID(d.ID)
		e.i64(int64(d.SendTS))
		e.u8(uint8(d.Sem.Order))
		e.u8(uint8(d.Sem.Atomicity))
		e.u64(uint64(d.HDO))
		e.u64(uint64(d.Acks))
		if d.Undeliverable {
			e.u8(1)
		} else {
			e.u8(0)
		}
		e.i64(int64(d.StableTS))
		e.u64(uint64(d.GroupSeq))
		e.processList(d.Members)
	}
}

type decoder struct {
	buf []byte
	off int
	ver uint8
}

func (d *decoder) need(n int) error {
	if d.off+n > len(d.buf) {
		return ErrTruncated
	}
	return nil
}

func (d *decoder) u8() (uint8, error) {
	if err := d.need(1); err != nil {
		return 0, err
	}
	v := d.buf[d.off]
	d.off++
	return v, nil
}

func (d *decoder) u32() (uint32, error) {
	if err := d.need(4); err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v, nil
}

func (d *decoder) u64() (uint64, error) {
	if err := d.need(8); err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v, nil
}

func (d *decoder) i64() (int64, error) {
	v, err := d.u64()
	return int64(v), err
}

func (d *decoder) listLen() (int, error) {
	n, err := d.u32()
	if err != nil {
		return 0, err
	}
	if n > maxListLen {
		return 0, fmt.Errorf("wire: list length %d exceeds limit", n)
	}
	return int(n), nil
}

// listFor returns a length-n slice, reusing s's backing array when it
// fits. Harvested elements keep their old nested slices so decode loops
// that fill every field reuse those allocations too.
func listFor[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	out := make([]T, n)
	copy(out, s[:cap(s)])
	return out
}

// bytes decodes a length-prefixed byte string, reusing prev's backing
// array when it fits.
func (d *decoder) bytes(prev []byte) ([]byte, error) {
	n, err := d.listLen()
	if err != nil {
		return nil, err
	}
	if err := d.need(n); err != nil {
		return nil, err
	}
	out := listFor(prev, n)
	copy(out, d.buf[d.off:])
	d.off += n
	return out, nil
}

func (d *decoder) processList(prev []model.ProcessID) ([]model.ProcessID, error) {
	n, err := d.listLen()
	if err != nil {
		return nil, err
	}
	if err := d.need(8 * n); err != nil {
		return nil, err
	}
	out := listFor(prev, n)
	for i := range out {
		v, _ := d.i64()
		out[i] = model.ProcessID(v)
	}
	return out, nil
}

func (d *decoder) proposalID() (oal.ProposalID, error) {
	p, err := d.i64()
	if err != nil {
		return oal.ProposalID{}, err
	}
	s, err := d.u64()
	if err != nil {
		return oal.ProposalID{}, err
	}
	return oal.ProposalID{Proposer: model.ProcessID(p), Seq: s}, nil
}

func (d *decoder) proposalIDList(prev []oal.ProposalID) ([]oal.ProposalID, error) {
	n, err := d.listLen()
	if err != nil {
		return nil, err
	}
	if err := d.need(16 * n); err != nil {
		return nil, err
	}
	out := listFor(prev, n)
	for i := range out {
		out[i], _ = d.proposalID()
	}
	return out, nil
}

func (d *decoder) group(prevMembers []model.ProcessID) (model.Group, error) {
	seq, err := d.u64()
	if err != nil {
		return model.Group{}, err
	}
	ms, err := d.processList(prevMembers)
	if err != nil {
		return model.Group{}, err
	}
	return model.Group{Seq: model.GroupSeq(seq), Members: ms}, nil
}

func (d *decoder) oal(l *oal.List) error {
	next, err := d.u64()
	if err != nil {
		return err
	}
	l.Next = oal.Ordinal(next)
	n, err := d.listLen()
	if err != nil {
		return err
	}
	// Every descriptor occupies at least 52 bytes on the wire — guard
	// before sizing the slice so a corrupt length cannot force a huge
	// allocation.
	if err := d.need(52 * n); err != nil {
		return err
	}
	l.Entries = listFor(l.Entries, n)
	for i := range l.Entries {
		desc := &l.Entries[i]
		var b uint8
		if b, err = d.u8(); err != nil {
			return err
		}
		desc.Kind = oal.DescriptorKind(b)
		var u uint64
		if u, err = d.u64(); err != nil {
			return err
		}
		desc.Ordinal = oal.Ordinal(u)
		if desc.ID, err = d.proposalID(); err != nil {
			return err
		}
		var ts int64
		if ts, err = d.i64(); err != nil {
			return err
		}
		desc.SendTS = model.Time(ts)
		if b, err = d.u8(); err != nil {
			return err
		}
		desc.Sem.Order = oal.Order(b)
		if b, err = d.u8(); err != nil {
			return err
		}
		desc.Sem.Atomicity = oal.Atomicity(b)
		if u, err = d.u64(); err != nil {
			return err
		}
		desc.HDO = oal.Ordinal(u)
		if u, err = d.u64(); err != nil {
			return err
		}
		desc.Acks = oal.AckSet(u)
		if b, err = d.u8(); err != nil {
			return err
		}
		desc.Undeliverable = b != 0
		if ts, err = d.i64(); err != nil {
			return err
		}
		desc.StableTS = model.Time(ts)
		if u, err = d.u64(); err != nil {
			return err
		}
		desc.GroupSeq = model.GroupSeq(u)
		if desc.Members, err = d.processList(desc.Members); err != nil {
			return err
		}
	}
	return nil
}

func (d *decoder) done() error {
	if d.off != len(d.buf) {
		return fmt.Errorf("wire: %d trailing bytes", len(d.buf)-d.off)
	}
	return nil
}
