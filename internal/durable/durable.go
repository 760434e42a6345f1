// Package durable owns the one on-disk record format of the repo: a
// CRC-32C framed record that every durable file uses — the serve WAL
// and job snapshot, the evaluation-cache segments, the tuning journal
// and the fuzz-sweep and study-outcome snapshots. Each file kind picks
// its own magic, so a file of one kind never decodes as another.
//
// A frame is
//
//	<magic><crc32c-hex8> <payload-len>\n
//	<payload bytes>\n
//
// where the magic ends in a space that doubles as the header's field
// separator. The CRC covers the payload; the framing fields are
// validated structurally (hex width, decimal length, exact trailing
// newline), so every byte of a frame takes part in some check.
//
// Logs are sequences of frames appended in place, and Log is the one
// implementation of them (see OpenLog). Decode returns the maximal
// valid prefix of a log image and classifies damage: data that simply
// ends mid-frame is ErrTornTail (the shape a crash during an append
// leaves), bytes that are present but fail a check are ErrCorrupt.
// Each caller picks its recovery policy from the class.
//
// Snapshots (Save, Load) hold exactly one frame and are replaced
// atomically: temp file, fsync, rename, directory fsync. Every file
// operation goes through an FS.
package durable

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"strconv"
	"strings"
)

var (
	// ErrTornTail marks an image that ends mid-frame — expected crash
	// damage. Everything before validLen is intact.
	ErrTornTail = errors.New("durable: torn tail")
	// ErrCorrupt marks a frame whose bytes are all present but damaged
	// (bad magic, bad header, checksum mismatch, payload the caller
	// rejects), or a snapshot that is not exactly one clean frame.
	ErrCorrupt = errors.New("durable: corrupt frame")
	// ErrKindMismatch marks a clean snapshot written for a different
	// purpose: the file is fine, the caller is wrong.
	ErrKindMismatch = errors.New("durable: snapshot kind mismatch")
)

// castagnoli is the CRC-32C table (the polynomial iSCSI and ext4 use).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// AppendFrame appends one frame carrying payload to dst.
func AppendFrame(dst []byte, magic string, payload []byte) []byte {
	dst = append(dst, magic...)
	dst = fmt.Appendf(dst, "%08x %d\n", crc32.Checksum(payload, castagnoli), len(payload))
	dst = append(dst, payload...)
	return append(dst, '\n')
}

// Decode walks the frames of raw in order, handing each payload to
// apply. validLen is the offset just past the last frame apply
// accepted — the truncation point of a recovery. err is nil for a
// clean image, ErrTornTail when raw ends mid-frame and ErrCorrupt when
// a present frame fails a check or apply rejects its payload. apply
// never sees a damaged payload, so damage never yields a partial
// record.
func Decode(magic string, raw []byte, apply func(payload []byte) error) (validLen int, err error) {
	// The header is the magic, 8 hex digits, a space, a length no wider
	// than 20 digits and a newline.
	maxHeader := len(magic) + 8 + 1 + 20 + 1
	off := 0
	for off < len(raw) {
		rest := raw[off:]
		// A proper prefix of the magic at end-of-data is a torn tail; a
		// mismatch within available bytes is corruption.
		if len(rest) < len(magic) {
			if strings.HasPrefix(magic, string(rest)) {
				return off, fmt.Errorf("%w: %d byte(s) after offset %d", ErrTornTail, len(rest), off)
			}
			return off, fmt.Errorf("%w: bad magic at offset %d", ErrCorrupt, off)
		}
		if string(rest[:len(magic)]) != magic {
			return off, fmt.Errorf("%w: bad magic at offset %d", ErrCorrupt, off)
		}
		nl := bytes.IndexByte(rest, '\n')
		if nl < 0 {
			if len(rest) <= maxHeader {
				return off, fmt.Errorf("%w: unterminated header at offset %d", ErrTornTail, off)
			}
			return off, fmt.Errorf("%w: runaway header at offset %d", ErrCorrupt, off)
		}
		if nl > maxHeader {
			return off, fmt.Errorf("%w: oversized header at offset %d", ErrCorrupt, off)
		}
		fields := strings.Fields(string(rest[len(magic):nl]))
		if len(fields) != 2 || len(fields[0]) != 8 {
			return off, fmt.Errorf("%w: malformed header at offset %d", ErrCorrupt, off)
		}
		wantSum, herr := strconv.ParseUint(fields[0], 16, 32)
		if herr != nil {
			return off, fmt.Errorf("%w: bad checksum field at offset %d", ErrCorrupt, off)
		}
		wantLen, herr := strconv.Atoi(fields[1])
		if herr != nil || wantLen < 0 {
			return off, fmt.Errorf("%w: bad length field at offset %d", ErrCorrupt, off)
		}
		body := rest[nl+1:]
		if len(body) < wantLen+1 {
			return off, fmt.Errorf("%w: frame at offset %d wants %d byte(s), has %d",
				ErrTornTail, off, wantLen+1, len(body))
		}
		payload := body[:wantLen]
		if body[wantLen] != '\n' {
			return off, fmt.Errorf("%w: unterminated frame at offset %d", ErrCorrupt, off)
		}
		if got := crc32.Checksum(payload, castagnoli); got != uint32(wantSum) {
			return off, fmt.Errorf("%w: checksum %08x, want %08x at offset %d", ErrCorrupt, got, wantSum, off)
		}
		if aerr := apply(payload); aerr != nil {
			return off, fmt.Errorf("%w: frame at offset %d: %v", ErrCorrupt, off, aerr)
		}
		off += nl + 1 + wantLen + 1
	}
	return off, nil
}

// snapMagic opens the one frame of every snapshot file.
const snapMagic = "pattyckpt "

// snapVersion is the envelope version this build reads and writes.
const snapVersion = 1

// envelope is the JSON payload of a snapshot frame.
type envelope struct {
	Version int             `json:"version"`
	Kind    string          `json:"kind"`
	Data    json.RawMessage `json:"data"`
}

// encodeSnapshot renders v as a one-frame snapshot image.
func encodeSnapshot(kind string, v any) ([]byte, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("durable: marshal %q: %w", kind, err)
	}
	payload, err := json.Marshal(envelope{Version: snapVersion, Kind: kind, Data: data})
	if err != nil {
		return nil, fmt.Errorf("durable: marshal envelope: %w", err)
	}
	return AppendFrame(nil, snapMagic, payload), nil
}

// decodeSnapshot parses a snapshot image into v. The image must be
// exactly one clean frame; any damage, a second frame or trailing
// bytes is ErrCorrupt, since a snapshot is never appended to.
func decodeSnapshot(raw []byte, kind string, v any) error {
	var env *envelope
	_, err := Decode(snapMagic, raw, func(payload []byte) error {
		if env != nil {
			return errors.New("second frame in a snapshot")
		}
		env = new(envelope)
		if err := json.Unmarshal(payload, env); err != nil {
			return err
		}
		if env.Version != snapVersion {
			return fmt.Errorf("snapshot version %d, this build reads %d", env.Version, snapVersion)
		}
		return nil
	})
	switch {
	case errors.Is(err, ErrTornTail):
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	case err != nil:
		return err
	case env == nil:
		return fmt.Errorf("%w: empty snapshot", ErrCorrupt)
	case env.Kind != kind:
		return fmt.Errorf("%w: snapshot holds %q, caller wants %q", ErrKindMismatch, env.Kind, kind)
	}
	if err := json.Unmarshal(env.Data, v); err != nil {
		return fmt.Errorf("%w: data: %v", ErrCorrupt, err)
	}
	return nil
}

// Save atomically replaces the snapshot at path with v, tagged kind:
// temp file in the same directory, fsync, rename, directory fsync. A
// crash at any instant leaves either the old snapshot or the new one.
func Save(fsys FS, path, kind string, v any) error {
	raw, err := encodeSnapshot(kind, v)
	if err != nil {
		return err
	}
	tmp, err := fsys.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	defer fsys.Remove(tmp.Name()) // no-op after a successful rename
	_, err = tmp.Write(raw)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Rename(tmp.Name(), path)
	}
	if err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	return nil
}

// Load reads the snapshot at path into v. A missing file reports
// fs.ErrNotExist, a damaged one ErrCorrupt and a snapshot of another
// kind ErrKindMismatch. v is filled only from a frame whose checksum
// held, so damage never loads partial state.
func Load(fsys FS, path, kind string, v any) error {
	raw, err := fsys.ReadFile(path)
	if err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	if err := decodeSnapshot(raw, kind, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
