//go:build !linux || arm

package journal

import "os"

// startWriteBack has no portable form; datasync does the writing.
func startWriteBack(*os.File, int64, int64) {}

// datasync syncs f whole.
func datasync(f *os.File) error { return f.Sync() }
