package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"sync"

	"upa/internal/checksum"
)

// Entry kinds of the persistence log. One entry type serves both the
// append-only journal and the snapshot (a snapshot is just a compacted
// entry sequence), so restart replay is a single code path.
const (
	entryTenant  = "tenant"  // register/re-budget a tenant
	entryCharge  = "charge"  // admission charged (tenant, user) eps
	entryRefund  = "refund"  // a failed release returned its charge
	entryRelease = "release" // a release was published under Key
)

// entry is one persisted ledger/cache movement.
type entry struct {
	// Seq orders entries across the snapshot/journal boundary; assigned by
	// the Store on append.
	Seq  uint64 `json:"seq"`
	Kind string `json:"kind"`
	// Tenant/User/Eps describe ledger movements; Budget/UserBudget ride on
	// registrations.
	Tenant     string  `json:"tenant,omitempty"`
	User       string  `json:"user,omitempty"`
	Eps        float64 `json:"eps,omitempty"`
	Budget     float64 `json:"budget,omitempty"`
	UserBudget float64 `json:"userBudget,omitempty"`
	// Key and Release carry a published release into the cache.
	Key     string         `json:"key,omitempty"`
	Release *CachedRelease `json:"release,omitempty"`
}

// snapshotFile is the JSON shape of the snapshot: the sequence number the
// compaction happened at plus the compacted entry list.
type snapshotFile struct {
	Seq     uint64  `json:"seq"`
	Entries []entry `json:"entries"`
}

// Store persists the serving state as a JSON snapshot plus an append-only
// JSONL journal of everything since: every ledger charge/refund/registration
// and every published release is appended — and fsynced — as it happens, and
// a restart replays snapshot entries then the journal entries newer than the
// snapshot (Seq orders across that boundary, so a crash between writing the
// snapshot and truncating the journal never double-counts a movement). Flush
// compacts the current state into a fresh snapshot and truncates the journal
// — the graceful-shutdown path — but an unflushed crash loses nothing: the
// journal already holds every acknowledged movement, durably.
type Store struct {
	mu          sync.Mutex
	snapPath    string
	journalPath string
	journal     *os.File
	seq         uint64
}

// OpenStore opens (or creates) the persistence pair rooted at path: the
// snapshot lives at path, the journal at path+".journal". It returns the
// store and the full replay sequence — snapshot entries first, then
// journal entries — which the caller feeds through Ledger.replayEntry and
// Cache.replay before serving.
func OpenStore(path string) (*Store, []entry, error) {
	if path == "" {
		return nil, nil, fmt.Errorf("serve: empty store path")
	}
	st := &Store{snapPath: path, journalPath: path + ".journal"}

	var replay []entry
	snap, err := readSnapshot(st.snapPath)
	if err != nil {
		return nil, nil, err
	}
	if snap != nil {
		replay = append(replay, snap.Entries...)
		st.seq = snap.Seq
	}
	journalEntries, err := readJournal(st.journalPath)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range journalEntries {
		// A crash between Flush's snapshot rename and its journal truncation
		// leaves a journal whose prefix is already folded into the snapshot;
		// replaying those entries again would double-count every ε movement.
		if snap != nil && e.Seq <= snap.Seq {
			continue
		}
		replay = append(replay, e)
		if e.Seq > st.seq {
			st.seq = e.Seq
		}
	}

	f, err := os.OpenFile(st.journalPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, err
	}
	st.journal = f
	return st, replay, nil
}

// snapshotChecksumPrefix heads a checksummed snapshot: the CRC-32C of every
// byte after the first newline, so any bit rot in the ε accounting is a loud
// boot failure instead of a silently wrong ledger. The snapshot is written
// atomically (rename), so unlike the journal there is no torn-tail shape to
// tolerate — a mismatch is always corruption.
const snapshotChecksumPrefix = "#crc32c="

// readSnapshot loads the snapshot file, nil when absent. Checksummed
// snapshots are verified whole-file; a legacy snapshot (bare JSON from
// before the checksum header) still parses.
func readSnapshot(path string) (*snapshotFile, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	if bytes.HasPrefix(data, []byte(snapshotChecksumPrefix)) {
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			return nil, fmt.Errorf("serve: corrupt snapshot %s: checksum header has no body", path)
		}
		want, perr := strconv.ParseUint(string(data[len(snapshotChecksumPrefix):nl]), 16, 32)
		if perr != nil {
			return nil, fmt.Errorf("serve: corrupt snapshot %s: malformed checksum header", path)
		}
		body := data[nl+1:]
		if checksum.Sum(body) != uint32(want) {
			return nil, fmt.Errorf("serve: corrupt snapshot %s: checksum mismatch (ε accounting cannot be trusted)", path)
		}
		data = body
	}
	var snap snapshotFile
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("serve: corrupt snapshot %s: %w", path, err)
	}
	return &snap, nil
}

// readJournal loads every complete journal line. Exactly one kind of damage
// is tolerated: an unparsable FINAL line (the process died mid-append), whose
// movement never returned success to a client. An unparsable line with data
// after it is not a torn tail — it is corruption, and silently dropping the
// entries behind it would under-count ε spend, so the boot fails instead.
func readJournal(path string) ([]entry, error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []entry
	badLine := 0 // 1-based line number of the first unparsable line
	lineNo := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		if badLine != 0 {
			return nil, fmt.Errorf(
				"serve: corrupt journal %s: unparsable line %d is followed by more entries (only a torn final line is tolerated)",
				path, badLine)
		}
		e, err := parseJournalLine(line)
		if err != nil {
			badLine = lineNo // torn tail if nothing follows, corruption otherwise
			continue
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil && !errors.Is(err, io.ErrUnexpectedEOF) {
		return nil, err
	}
	return out, nil
}

// parseJournalLine decodes one journal line. Checksummed lines carry the
// format "<8-hex-crc32c> <json>" with the CRC over the JSON bytes; legacy
// lines (bare JSON, first byte '{') from journals written before the
// checksum prefix still parse. A CRC mismatch is indistinguishable from an
// unparsable line to the caller — both feed the torn-tail-vs-corruption
// decision — but the checksum catches the damage a flipped byte inside a
// still-valid JSON number would otherwise smuggle into the ε ledger.
func parseJournalLine(line []byte) (entry, error) {
	var e entry
	payload := line
	if line[0] != '{' {
		if len(line) < 10 || line[8] != ' ' {
			return e, fmt.Errorf("malformed checksum prefix")
		}
		want, err := strconv.ParseUint(string(line[:8]), 16, 32)
		if err != nil {
			return e, fmt.Errorf("malformed checksum prefix: %v", err)
		}
		payload = line[9:]
		if checksum.Sum(payload) != uint32(want) {
			return e, fmt.Errorf("line checksum mismatch")
		}
	}
	if err := json.Unmarshal(payload, &e); err != nil {
		return e, err
	}
	return e, nil
}

// Append assigns the next sequence number, writes the entry as one
// CRC-prefixed journal line, and fsyncs it. The sync is what makes a
// journaled ε charge durable against power loss, not just process death —
// losing an acknowledged charge under-counts spend, the one direction the
// ledger must never err in; the per-line CRC makes later bit rot of a synced
// charge detectable at replay instead of silently mis-counting it.
func (st *Store) Append(e entry) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.journal == nil {
		return fmt.Errorf("serve: store is closed")
	}
	st.seq++
	e.Seq = st.seq
	payload, err := json.Marshal(e)
	if err != nil {
		return err
	}
	line := make([]byte, 0, len(payload)+10)
	line = append(line, fmt.Sprintf("%08x ", checksum.Sum(payload))...)
	line = append(line, payload...)
	line = append(line, '\n')
	if _, err := st.journal.Write(line); err != nil {
		return err
	}
	return st.journal.Sync()
}

// Flush writes the compacted state as a fresh snapshot (atomically, via
// rename) and truncates the journal. Call it on graceful shutdown or
// periodically; the journal alone is always sufficient for replay.
//
// The snapshot is durable before the journal is touched: the temp file is
// fsynced before the rename and the directory after it. Otherwise a power
// cut could leave an empty or stale snapshot beside an already-emptied
// journal, losing acknowledged ε charges.
func (st *Store) Flush(compacted []entry) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	snap := snapshotFile{Seq: st.seq, Entries: compacted}
	body, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	data := make([]byte, 0, len(body)+len(snapshotChecksumPrefix)+9)
	data = append(data, fmt.Sprintf("%s%08x\n", snapshotChecksumPrefix, checksum.Sum(body))...)
	data = append(data, body...)
	tmp := st.snapPath + ".tmp"
	if err := writeFileSync(tmp, data); err != nil {
		return err
	}
	if err := os.Rename(tmp, st.snapPath); err != nil {
		return err
	}
	if err := syncDir(filepath.Dir(st.snapPath)); err != nil {
		return err
	}
	if st.journal != nil {
		if err := st.journal.Truncate(0); err != nil {
			return err
		}
		if _, err := st.journal.Seek(0, io.SeekStart); err != nil {
			return err
		}
	}
	return nil
}

// writeFileSync writes data to path and fsyncs it before closing.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncDir fsyncs a directory, making a rename inside it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}

// Close closes the journal file. It does not flush: callers decide whether
// shutdown compacts (Service.Close does).
func (st *Store) Close() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.journal == nil {
		return nil
	}
	err := st.journal.Close()
	st.journal = nil
	return err
}
