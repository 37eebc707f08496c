package wire

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
)

// TestReadBodySizedRead: a body that declares its length is read into
// one buffer, with no regrowth to reach EOF; an undeclared one grows as
// it arrives; an oversize declaration is refused unread.
func TestReadBodySizedRead(t *testing.T) {
	body := bytes.Repeat([]byte("frame"), 20_000)
	r := bytes.NewReader(body)
	read := func(declared int64) []byte {
		t.Helper()
		r.Reset(body)
		b, err := ReadBody(r, declared)
		if err != nil || !bytes.Equal(b, body) {
			t.Fatalf("declared %d: read %d bytes, err %v", declared, len(b), err)
		}
		return b
	}
	// The buffer and the 24-byte limit reader.
	if n := testing.AllocsPerRun(10, func() { read(int64(len(body))) }); n != 2 {
		t.Errorf("a declared body took %v allocations, want 2", n)
	}
	if n := testing.AllocsPerRun(10, func() { read(-1) }); n < 4 {
		t.Errorf("an undeclared body took %v allocations; the test no longer tells the two reads apart", n)
	}
	if b := read(1 << 30 / 4); cap(b) > bodyPrealloc+bytes.MinRead {
		t.Errorf("a 256 MB declaration sized a %d-byte buffer, over the %d cap", cap(b), bodyPrealloc)
	}
	// A body that declares 100 MB and sends 10 bytes: the worker answers
	// 400 (procruntime's TestLyingContentLengthIsRefused); the read
	// itself costs at most the cap.
	if b, err := ReadBody(strings.NewReader("0123456789"), 100<<20); err != nil || len(b) != 10 || cap(b) > bodyPrealloc+bytes.MinRead {
		t.Errorf("10 bytes declared as 100 MB: %d bytes in a %d-byte buffer, err %v", len(b), cap(b), err)
	}
	var tooBig *BodyTooLargeError
	if _, err := ReadBody(io.MultiReader(), MaxBodyBytes+1); !errors.As(err, &tooBig) {
		t.Errorf("oversize declaration: err %v, want a BodyTooLargeError", err)
	}
}
