package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// versionedSnapshotBytes encodes a small trained snapshot in the
// current on-disk format.
func versionedSnapshotBytes(t *testing.T) []byte {
	t.Helper()
	m := newTestModel(t, func(c *Config) { c.K = 8 })
	m.TrainSteps(200)
	var buf bytes.Buffer
	if err := m.Snapshot().Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestReadSnapshotCorruptionTable(t *testing.T) {
	good := versionedSnapshotBytes(t)

	futureVersion := append([]byte(nil), good...)
	binary.BigEndian.PutUint32(futureVersion[8:], snapshotVersion+7)

	bitFlip := append([]byte(nil), good...)
	bitFlip[len(bitFlip)/2] ^= 0x40

	wrongMagic := append([]byte(nil), good...)
	copy(wrongMagic, "NOTASNAP")

	hugeLength := append([]byte(nil), good...)
	binary.BigEndian.PutUint64(hugeLength[12:], maxSnapshotPayload+1)

	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrSnapshotCorrupt},
		{"truncated mid-magic", good[:4], ErrSnapshotCorrupt},
		{"truncated mid-header", good[:headerLen-3], ErrSnapshotCorrupt},
		{"truncated mid-payload", good[:headerLen+10], ErrSnapshotCorrupt},
		{"truncated near end", good[:len(good)-5], ErrSnapshotCorrupt},
		{"bit flip in payload", bitFlip, ErrSnapshotCorrupt},
		{"wrong magic", wrongMagic, ErrSnapshotCorrupt},
		{"garbage", []byte("these are not the bytes you are looking for"), ErrSnapshotCorrupt},
		{"future version", futureVersion, ErrSnapshotVersion},
		{"absurd payload length", hugeLength, ErrSnapshotCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadSnapshot(bytes.NewReader(tc.data))
			if err == nil {
				t.Fatal("corrupt snapshot accepted")
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("error %v does not wrap %v", err, tc.want)
			}
			if err.Error() == "" {
				t.Fatal("empty error message")
			}
		})
	}
}

func TestReadSnapshotRefusesBareGob(t *testing.T) {
	m := newTestModel(t, func(c *Config) { c.K = 8 })
	m.TrainSteps(300)
	snap := m.Snapshot()

	// A pre-versioning file is a bare gob stream of a valid Snapshot
	// struct: without the versioned header it carries no checksum, so it
	// is refused before any decode.
	var bare bytes.Buffer
	if err := gob.NewEncoder(&bare).Encode(snap); err != nil {
		t.Fatal(err)
	}
	raw := append([]byte(nil), bare.Bytes()...)
	if _, err := ReadSnapshot(&bare); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("bare gob snapshot: err = %v, want ErrSnapshotCorrupt", err)
	}

	// And the file-based path too.
	path := filepath.Join(t.TempDir(), "bare.gob")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSnapshotFile(path); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("bare gob file: err = %v, want ErrSnapshotCorrupt", err)
	}
}

// failAfterWriter injects a short write: it forwards n bytes, then
// fails — the moral equivalent of a crash mid-SaveFile.
type failAfterWriter struct {
	w io.Writer
	n int
}

func (f *failAfterWriter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, fmt.Errorf("injected disk-full")
	}
	if len(p) > f.n {
		n, _ := f.w.Write(p[:f.n])
		f.n = 0
		return n, fmt.Errorf("injected disk-full")
	}
	f.n -= len(p)
	return f.w.Write(p)
}

func TestSaveFileShortWriteLeavesOldSnapshotIntact(t *testing.T) {
	m := newTestModel(t, func(c *Config) { c.K = 8 })
	m.TrainSteps(100)
	dir := t.TempDir()
	path := filepath.Join(dir, "model.gob")

	// A good snapshot is already on disk.
	if err := m.Snapshot().SaveFile(path); err != nil {
		t.Fatal(err)
	}
	want, err := LoadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// The next save dies mid-write at several cut points.
	m.TrainSteps(100)
	for _, cut := range []int{0, 3, headerLen, headerLen + 1000} {
		encodeWriter = func(w io.Writer) io.Writer { return &failAfterWriter{w: w, n: cut} }
		err := m.Snapshot().SaveFile(path)
		encodeWriter = func(w io.Writer) io.Writer { return w }
		if err == nil {
			t.Fatalf("cut=%d: injected write failure not surfaced", cut)
		}
		got, err := LoadSnapshotFile(path)
		if err != nil {
			t.Fatalf("cut=%d: pre-existing snapshot destroyed: %v", cut, err)
		}
		if got.Steps != want.Steps {
			t.Fatalf("cut=%d: pre-existing snapshot replaced (steps %d, want %d)", cut, got.Steps, want.Steps)
		}
		assertNoTempFiles(t, dir)
	}
}

func TestSaveFileRenameFailureLeavesOldSnapshotIntact(t *testing.T) {
	m := newTestModel(t, func(c *Config) { c.K = 8 })
	m.TrainSteps(100)
	dir := t.TempDir()
	path := filepath.Join(dir, "model.gob")
	if err := m.Snapshot().SaveFile(path); err != nil {
		t.Fatal(err)
	}

	m.TrainSteps(100)
	renameFile = func(oldpath, newpath string) error { return fmt.Errorf("injected rename failure") }
	err := m.Snapshot().SaveFile(path)
	renameFile = os.Rename
	if err == nil {
		t.Fatal("injected rename failure not surfaced")
	}
	got, err := LoadSnapshotFile(path)
	if err != nil {
		t.Fatalf("pre-existing snapshot destroyed: %v", err)
	}
	if got.Steps != 100 {
		t.Fatalf("pre-existing snapshot replaced (steps %d, want 100)", got.Steps)
	}
	assertNoTempFiles(t, dir)
}

func TestSaveFileFirstWriteFailureLeavesNothing(t *testing.T) {
	m := newTestModel(t, func(c *Config) { c.K = 8 })
	dir := t.TempDir()
	path := filepath.Join(dir, "model.gob")

	encodeWriter = func(w io.Writer) io.Writer { return &failAfterWriter{w: w, n: 7} }
	err := m.Snapshot().SaveFile(path)
	encodeWriter = func(w io.Writer) io.Writer { return w }
	if err == nil {
		t.Fatal("injected write failure not surfaced")
	}
	if _, statErr := os.Stat(path); !os.IsNotExist(statErr) {
		t.Fatalf("partial file left at target path: %v", statErr)
	}
	assertNoTempFiles(t, dir)
}

// assertNoTempFiles verifies a failed SaveFile cleaned up its temp file.
func assertNoTempFiles(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "model.gob" {
			t.Fatalf("leftover file after failed save: %s", e.Name())
		}
	}
}

func TestSaveFileAtomicReplaceUnderReload(t *testing.T) {
	// The reload contract: whatever instant a reader opens the path, it
	// sees a complete snapshot — either the old or the new one.
	m := newTestModel(t, func(c *Config) { c.K = 8 })
	dir := t.TempDir()
	path := filepath.Join(dir, "model.gob")
	if err := m.Snapshot().SaveFile(path); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			m.TrainSteps(50)
			if err := m.Snapshot().SaveFile(path); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for {
		select {
		case <-done:
			return
		default:
		}
		if _, err := LoadSnapshotFile(path); err != nil {
			t.Fatalf("reader observed a partial snapshot: %v", err)
		}
	}
}
