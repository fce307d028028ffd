package obs

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestStatusRecorderFlushes: a flush through the recorder reaches the
// writer it wraps, and the recorder still counts what went through it.
func TestStatusRecorderFlushes(t *testing.T) {
	w := httptest.NewRecorder()
	rec := NewStatusRecorder(w)
	rec.WriteHeader(http.StatusAccepted)
	_, _ = rec.Write([]byte("ok\n"))
	if err := http.NewResponseController(rec).Flush(); err != nil {
		t.Fatal(err)
	}
	if !w.Flushed || rec.Status != http.StatusAccepted || rec.Bytes != 3 {
		t.Errorf("flushed %v, status %d, bytes %d", w.Flushed, rec.Status, rec.Bytes)
	}
}
