//go:build linux && !arm

package journal

import (
	"os"
	"syscall"
)

// syncFileRangeWrite is SYNC_FILE_RANGE_WRITE: start the write-back of
// the range's dirty pages, wait for none of it.
const syncFileRangeWrite = 0x2

// startWriteBack starts writing [off, off+n) of f to the device, so that
// a later datasync finds it written or in flight. It is a hint: an error
// leaves the work to datasync.
func startWriteBack(f *os.File, off, n int64) {
	_ = syscall.SyncFileRange(int(f.Fd()), off, n, syncFileRangeWrite)
}

// datasync is fdatasync(2): f's data and the metadata needed to read it
// back, which is none when the writes fell inside the headroom.
func datasync(f *os.File) error {
	for {
		err := syscall.Fdatasync(int(f.Fd()))
		if err == nil {
			return nil
		}
		if err != syscall.EINTR {
			return &os.PathError{Op: "fdatasync", Path: f.Name(), Err: err}
		}
	}
}
