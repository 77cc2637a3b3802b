package timewheel

// Cluster flight recorder: when a node detects that something has
// gone wrong — the timeliness guard trips, the node self-excludes, the
// live invariant auditor counts a violation, an operator hits the HTTP
// trigger or sends SIGQUIT — it dumps a self-contained "black box"
// bundle to disk. The bundle captures exactly the state needed to
// reconstruct the incident after the fact: the protocol trace ring
// (with the causal wire hops the v7 envelope carries), a full metrics
// snapshot, the adaptive estimator and guard state, the auditor's
// per-invariant counts, and goroutine/heap profiles.
//
// Bundles are written atomically (staged under a dot-prefixed temp
// name, renamed into place), automatic triggers are rate-limited so a
// flapping guard cannot fill the disk, and only the newest bundles are
// retained.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"timewheel/internal/obs"
)

const (
	// blackboxPrefix names bundle directories: bb-<stamp>-<reason>.
	blackboxPrefix = "bb-"
	// blackboxKeep is how many bundles a directory retains.
	blackboxKeep = 8
	// blackboxMinGap rate-limits automatic triggers; explicit
	// DumpBlackbox calls bypass it.
	blackboxMinGap = 30 * time.Second
)

// Blackbox trigger reasons, recorded in the bundle's meta.json and as
// the A argument of the blackbox trace event.
const (
	bbReasonManual = iota
	bbReasonGuardTrip
	bbReasonSelfExclude
	bbReasonInvariant
	bbReasonSignal
	bbReasonHTTP
)

func blackboxReasonCode(reason string) int64 {
	switch {
	case reason == "guard-trip":
		return bbReasonGuardTrip
	case reason == "self-exclude":
		return bbReasonSelfExclude
	case strings.HasPrefix(reason, "invariant"):
		return bbReasonInvariant
	case reason == "signal":
		return bbReasonSignal
	case reason == "http":
		return bbReasonHTTP
	default:
		return bbReasonManual
	}
}

// blackboxMeta is the bundle's meta.json.
type blackboxMeta struct {
	Node       int               `json:"node"`
	Group      uint32            `json:"group,omitempty"`
	Reason     string            `json:"reason"`
	At         time.Time         `json:"at"`
	Health     Health            `json:"health"`
	Guard      GuardStats        `json:"guard"`
	Adaptive   AdaptiveStats     `json:"adaptive"`
	Invariants map[string]uint64 `json:"invariant_violations,omitempty"`
	Recovery   RecoveryReport    `json:"recovery"`
}

// blackboxEvents is the bundle's events.json: the full trace ring at
// dump time, plus the overflow accounting a merger needs to treat gaps
// as real.
type blackboxEvents struct {
	Node      int          `json:"node"`
	Next      uint64       `json:"next"`
	Truncated bool         `json:"truncated"`
	Dropped   uint64       `json:"dropped"`
	Events    []TraceEvent `json:"events"`
}

// DumpBlackbox writes a flight-recorder bundle for this node and
// returns the bundle directory. The node must have a blackbox
// directory configured (Config.BlackboxDir, or DataDir/blackbox when
// the node is durable); otherwise it returns an error. Explicit calls
// are not rate-limited.
func (n *Node) DumpBlackbox(reason string) (string, error) {
	if n.bboxDir == "" {
		return "", fmt.Errorf("timewheel: no blackbox directory configured")
	}
	if reason == "" {
		reason = "manual"
	}
	now := time.Now()
	n.obs.emit(obs.EvBlackbox, blackboxReasonCode(reason), 0)

	// Stage under a dot-prefixed temp name in the same directory, fill
	// it, then rename: a bundle either exists completely or not at all,
	// and sweepers can skip dot-entries.
	if err := os.MkdirAll(n.bboxDir, 0o755); err != nil {
		return "", err
	}
	safe := strings.Map(func(r rune) rune {
		if r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' || r == '-' || r == '_' {
			return r
		}
		return '_'
	}, reason)
	name := fmt.Sprintf("%s%s-%s", blackboxPrefix, now.UTC().Format("20060102T150405.000000000"), safe)
	tmp := filepath.Join(n.bboxDir, "."+name)
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return "", err
	}
	defer os.RemoveAll(tmp) // no-op after the rename succeeds

	meta := blackboxMeta{
		Node:     n.cfg.ID,
		Group:    n.cfg.Group,
		Reason:   reason,
		At:       now,
		Health:   n.Health(),
		Guard:    n.GuardStats(),
		Adaptive: n.AdaptiveStats(),
		Recovery: n.recovery,
	}
	if n.auditor != nil {
		meta.Invariants = n.auditor.ByInvariant()
	}
	if err := writeBlackboxJSON(filepath.Join(tmp, "meta.json"), meta); err != nil {
		return "", err
	}

	evs, next, truncated := tracer.Since(0)
	dump := blackboxEvents{
		Node: n.cfg.ID, Next: next, Truncated: truncated, Dropped: tracer.Dropped(),
		Events: make([]TraceEvent, 0, len(evs)),
	}
	for _, ev := range evs {
		dump.Events = append(dump.Events, TraceEvent{
			Seq: ev.Seq, At: ev.Time(), Node: int(ev.Node),
			Type: ev.Type.String(), A: ev.A, B: ev.B,
		})
	}
	if err := writeBlackboxJSON(filepath.Join(tmp, "events.json"), dump); err != nil {
		return "", err
	}

	if err := writeBlackboxFile(filepath.Join(tmp, "metrics.prom"), func(f *os.File) error {
		return n.WriteMetrics(f)
	}); err != nil {
		return "", err
	}
	// Profiles are best-effort: a bundle without them still tells the
	// protocol-level story.
	writeBlackboxFile(filepath.Join(tmp, "goroutine.txt"), func(f *os.File) error { //nolint:errcheck
		return pprof.Lookup("goroutine").WriteTo(f, 1)
	})
	writeBlackboxFile(filepath.Join(tmp, "heap.pprof"), func(f *os.File) error { //nolint:errcheck
		return pprof.Lookup("heap").WriteTo(f, 0)
	})

	final := filepath.Join(n.bboxDir, name)
	if err := os.Rename(tmp, final); err != nil {
		return "", err
	}
	pruneBlackbox(n.bboxDir, blackboxKeep)
	return final, nil
}

// triggerBlackbox is the automatic-trigger path (guard trip,
// self-exclusion, invariant violation): rate-limited, asynchronous,
// and silent when no blackbox directory is configured — the callers
// run on the event goroutine or inside protocol hooks and must not
// block on disk I/O. Stop waits for the dump it starts, so no bundle is
// still being written once the node has stopped; a stopped node starts
// none.
func (n *Node) triggerBlackbox(reason string) {
	if n.bboxDir == "" {
		return
	}
	for {
		last := n.bboxLast.Load()
		now := time.Now().UnixNano()
		if now-last < int64(blackboxMinGap) {
			return
		}
		if n.bboxLast.CompareAndSwap(last, now) {
			break
		}
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.stopped {
		return
	}
	n.bboxDumps.Add(1)
	go func() {
		defer n.bboxDumps.Done()
		n.DumpBlackbox(reason) //nolint:errcheck // best-effort crash artifact
	}()
}

func writeBlackboxJSON(path string, v any) error {
	return writeBlackboxFile(path, func(f *os.File) error {
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		return enc.Encode(v)
	})
}

func writeBlackboxFile(path string, fill func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fill(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// pruneBlackbox removes the oldest bundles beyond keep. Bundle names
// embed a sortable UTC timestamp, so lexical order is age order.
func pruneBlackbox(dir string, keep int) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	var names []string
	for _, e := range ents {
		if e.IsDir() && strings.HasPrefix(e.Name(), blackboxPrefix) {
			names = append(names, e.Name())
		}
	}
	if len(names) <= keep {
		return
	}
	sort.Strings(names)
	for _, name := range names[:len(names)-keep] {
		os.RemoveAll(filepath.Join(dir, name)) //nolint:errcheck
	}
}
