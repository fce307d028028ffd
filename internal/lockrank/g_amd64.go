package lockrank

// gAddr is the address of the calling goroutine's runtime descriptor,
// which the runtime keeps in thread-local storage: the same for the
// goroutine's whole life, and never shared by two live goroutines.
func gAddr() uintptr

func init() { goroutine = gAddr }
