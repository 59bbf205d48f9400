package vfs

import (
	"bytes"
	"errors"
	"testing"
)

// Error-path and edge coverage beyond the main suite.

func TestWriteToDirectoryFails(t *testing.T) {
	fs := New("u")
	fs.Mkdir("/d", 0o755, "u")
	if _, err := fs.WriteAt("/d", []byte("x"), 0); !errors.Is(err, ErrIsDir) {
		t.Fatalf("WriteAt dir = %v", err)
	}
	if _, err := fs.ReadAt("/d", make([]byte, 1), 0); !errors.Is(err, ErrIsDir) {
		t.Fatalf("ReadAt dir = %v", err)
	}
	if err := fs.Truncate("/d", 0); !errors.Is(err, ErrIsDir) {
		t.Fatalf("Truncate dir = %v", err)
	}
	if _, err := fs.ReadFile("/d"); !errors.Is(err, ErrIsDir) {
		t.Fatalf("ReadFile dir = %v", err)
	}
	if _, err := fs.Create("/d", 0o644, "u"); !errors.Is(err, ErrIsDir) {
		t.Fatalf("Create over dir = %v", err)
	}
}

func TestResolveThroughFileFails(t *testing.T) {
	fs := New("u")
	fs.WriteFile("/f", []byte("x"), 0o644, "u")
	if _, err := fs.Stat("/f/deeper"); !errors.Is(err, ErrNotDir) {
		t.Fatalf("stat through file = %v", err)
	}
	if err := fs.Mkdir("/f/sub", 0o755, "u"); !errors.Is(err, ErrNotDir) {
		t.Fatalf("mkdir through file = %v", err)
	}
}

func TestLinkErrors(t *testing.T) {
	fs := New("u")
	fs.WriteFile("/f", []byte("x"), 0o644, "u")
	if err := fs.Link("/missing", "/l"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("link missing source = %v", err)
	}
	if err := fs.Link("/f", "/f"); !errors.Is(err, ErrExist) {
		t.Fatalf("link onto itself = %v", err)
	}
	if err := fs.Symlink("/f", "/f", "u"); !errors.Is(err, ErrExist) {
		t.Fatalf("symlink over existing = %v", err)
	}
}

func TestRenameErrors(t *testing.T) {
	fs := New("u")
	if err := fs.Rename("/missing", "/x"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("rename missing = %v", err)
	}
	if err := fs.Rename("/", "/x"); !errors.Is(err, ErrInvalid) {
		t.Fatalf("rename root = %v", err)
	}
	fs.WriteFile("/f", []byte("x"), 0o644, "u")
	// Rename to itself is a no-op.
	if err := fs.Rename("/f", "/f"); err != nil {
		t.Fatalf("rename to self = %v", err)
	}
}

func TestChmodChownErrors(t *testing.T) {
	fs := New("u")
	if err := fs.Chmod("/nope", 0o644); !errors.Is(err, ErrNotExist) {
		t.Fatalf("chmod missing = %v", err)
	}
	if err := fs.Chown("/nope", "a", "b"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("chown missing = %v", err)
	}
	// Chown with empty group preserves the old group.
	fs.WriteFile("/f", nil, 0o644, "u")
	fs.Chown("/f", "x", "grp")
	fs.Chown("/f", "y", "")
	st, _ := fs.Stat("/f")
	if st.Owner != "y" || st.Group != "grp" {
		t.Fatalf("chown merge = %+v", st)
	}
}

func TestHandleOnDirectory(t *testing.T) {
	fs := New("u")
	fs.Mkdir("/d", 0o755, "u")
	h, err := fs.OpenHandle("/d")
	if err != nil {
		t.Fatal(err)
	}
	if !h.IsDir() {
		t.Fatal("IsDir = false for directory")
	}
	if _, err := h.ReadAt(make([]byte, 1), 0); !errors.Is(err, ErrIsDir) {
		t.Fatalf("handle read dir = %v", err)
	}
	if _, err := h.WriteAt([]byte("x"), 0); !errors.Is(err, ErrIsDir) {
		t.Fatalf("handle write dir = %v", err)
	}
	if err := h.Truncate(0); !errors.Is(err, ErrIsDir) {
		t.Fatalf("handle truncate dir = %v", err)
	}
}

func TestHandleNegativeOffsets(t *testing.T) {
	fs := New("u")
	fs.WriteFile("/f", []byte("abc"), 0o644, "u")
	h, _ := fs.OpenHandle("/f")
	if _, err := h.ReadAt(make([]byte, 1), -1); !errors.Is(err, ErrInvalid) {
		t.Fatalf("negative read = %v", err)
	}
	if _, err := h.WriteAt([]byte("x"), -1); !errors.Is(err, ErrInvalid) {
		t.Fatalf("negative write = %v", err)
	}
	if err := h.Truncate(-1); !errors.Is(err, ErrInvalid) {
		t.Fatalf("negative truncate = %v", err)
	}
}

func TestHandleTruncateGrowAndSymlinkSize(t *testing.T) {
	fs := New("u")
	fs.WriteFile("/f", []byte("ab"), 0o644, "u")
	h, _ := fs.OpenHandle("/f")
	if err := h.Truncate(10); err != nil {
		t.Fatal(err)
	}
	if h.Size() != 10 {
		t.Fatalf("size = %d", h.Size())
	}
	fs.Symlink("/f", "/ln", "u")
	st, _ := fs.Lstat("/ln")
	if st.Size != int64(len("/f")) {
		t.Fatalf("symlink size = %d", st.Size)
	}
}

func TestMkdirAllOverFile(t *testing.T) {
	fs := New("u")
	fs.WriteFile("/f", nil, 0o644, "u")
	if err := fs.MkdirAll("/f/sub", 0o755, "u"); err == nil {
		t.Fatal("MkdirAll through file should fail")
	}
}

func TestSizeAndExists(t *testing.T) {
	fs := New("u")
	fs.WriteFile("/f", bytes.Repeat([]byte("x"), 42), 0o644, "u")
	n, err := fs.Size("/f")
	if err != nil || n != 42 {
		t.Fatalf("Size = %d, %v", n, err)
	}
	if _, err := fs.Size("/missing"); err == nil {
		t.Fatal("Size of missing should fail")
	}
	if fs.Exists("/missing") {
		t.Fatal("Exists(missing) = true")
	}
}

func TestUnlinkErrors(t *testing.T) {
	fs := New("u")
	if err := fs.Unlink("/nope"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("unlink missing = %v", err)
	}
	if err := fs.Rmdir("/nope"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("rmdir missing = %v", err)
	}
	fs.WriteFile("/f", nil, 0o644, "u")
	if err := fs.Rmdir("/f"); !errors.Is(err, ErrNotDir) {
		t.Fatalf("rmdir file = %v", err)
	}
}

func TestReadlinkOfMissing(t *testing.T) {
	fs := New("u")
	if _, err := fs.Readlink("/nope"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("readlink missing = %v", err)
	}
}

// MkdirWithFile's file is one name inside the new directory: a path,
// "." or ".." is refused before anything is made.
func TestMkdirWithFileRefusesAPath(t *testing.T) {
	fs := New("u")
	for _, name := range []string{"a/b", "/a", ".", ".."} {
		if err := fs.MkdirWithFile("/d", 0o755, "u", name, []byte("x")); !errors.Is(err, ErrInvalid) {
			t.Errorf("MkdirWithFile with file %q = %v, want ErrInvalid", name, err)
		}
	}
	if fs.Exists("/d") {
		t.Fatal("a refused MkdirWithFile made the directory")
	}
}
