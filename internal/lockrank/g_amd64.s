#include "textflag.h"

// func gAddr() uintptr
TEXT ·gAddr(SB),NOSPLIT,$0-8
	MOVQ (TLS), AX
	MOVQ AX, ret+0(FP)
	RET
