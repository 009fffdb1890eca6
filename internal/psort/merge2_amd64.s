//go:build amd64

#include "textflag.h"

// func hasAVX512() bool
TEXT ·hasAVX512(SB), NOSPLIT, $0-1
	MOVL $0, AX
	CPUID
	CMPL AX, $7
	JLT  no
	MOVL $1, AX
	MOVL $0, CX
	CPUID
	BTL  $27, CX // OSXSAVE: XGETBV is usable
	JCC  no
	MOVL $0, CX
	XGETBV
	ANDL $0xe6, AX // XMM, YMM, opmask, ZMM_Hi256 and Hi16_ZMM state
	CMPL AX, $0xe6
	JNE  no
	MOVL $7, AX
	MOVL $0, CX
	CPUID
	BTL  $16, BX // AVX512F
	JCC  no
	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// SORT8 sorts the 8 lanes of r, a bitonic sequence, into u through t:
// half-cleaners 4, 2 and 1 lanes apart, each a shuffle, a max, and a min
// merged into the lanes that keep the smaller key (masks K1-K3 sort
// ascending, K4-K6 descending). r is clobbered.
#define SORT8(r, t, u, ka, kb, kc) \
	VSHUFI64X2 $0x4e, r, r, t; \
	VPMAXSQ    t, r, u;        \
	VPMINSQ    t, r, ka, u;    \
	VSHUFI64X2 $0xb1, u, u, t; \
	VPMAXSQ    t, u, r;        \
	VPMINSQ    t, u, kb, r;    \
	VPSHUFD    $0x4e, r, t;    \
	VPMAXSQ    t, r, u;        \
	VPMINSQ    t, r, kc, u

// func merge2AVX512(dst, a, b [][1]int64) (i, j int)
//
// The carry Z10 holds the 8 largest keys loaded so far in descending
// order, so an ascending block X and the carry form a bitonic sequence
// of 16: lane-wise min and max split it into a low half L and a high
// half H, each bitonic, with every key of L at or below every key of H.
// SORT8 sorts L ascending, which is written, and H descending, which is
// the next carry.
TEXT ·merge2AVX512(SB), NOSPLIT, $0-88
	MOVQ dst_base+0(FP), DX
	MOVQ a_base+24(FP), SI
	MOVQ a_len+32(FP), R8
	MOVQ b_base+48(FP), DI
	MOVQ b_len+56(FP), R9
	MOVQ SI, R12
	MOVQ DI, R13
	LEAQ -64(SI)(R8*8), R8 // the last block start in a
	LEAQ -64(DI)(R9*8), R9 // and in b

	MOVL  $0x0f, AX
	KMOVW AX, K1
	MOVL  $0x33, AX
	KMOVW AX, K2
	MOVL  $0x55, AX
	KMOVW AX, K3
	KNOTW K1, K4
	KNOTW K2, K5
	KNOTW K3, K6

	// The first block, from the run with the smaller head, reversed.
	MOVQ       (SI), AX
	MOVQ       (DI), BX
	MOVQ       DI, R10
	LEAQ       64(SI), R11
	LEAQ       64(DI), CX
	CMPQ       AX, BX
	CMOVQLE    SI, R10
	CMOVQLE    R11, SI
	CMOVQGT    CX, DI
	VMOVDQU64  (R10), Z10
	VSHUFI64X2 $0x1b, Z10, Z10, Z10
	VPSHUFD    $0x4e, Z10, Z10

loop:
	CMPQ SI, R8
	JHI  done
	CMPQ DI, R9
	JHI  done

	// The next block is a's when a's head is the smaller (ties to a);
	// R10 points at it and R11 holds the other run's head.
	MOVQ    (SI), AX
	MOVQ    (DI), BX
	MOVQ    DI, R10
	MOVQ    AX, R11
	CMPQ    AX, BX
	CMOVQLE SI, R10
	CMOVQLE BX, R11
	CMPQ    56(R10), R11
	JGT     merge // the block passes the other run's head
	VMOVQ   X10, CX
	CMPQ    CX, (R10)
	JLE     done // and the carry lies wholly before it: a streak

merge:
	LEAQ    64(SI), R11
	LEAQ    64(DI), CX
	CMPQ    AX, BX
	CMOVQLE R11, SI
	CMOVQGT CX, DI

	VMOVDQU64 (R10), Z1
	VPMINSQ   Z1, Z10, Z0
	VPMAXSQ   Z1, Z10, Z1
	SORT8(Z0, Z4, Z8, K1, K2, K3)
	SORT8(Z1, Z5, Z10, K4, K5, K6)
	VMOVDQU64 Z8, (DX)
	ADDQ      $64, DX
	JMP       loop

done:
	SUBQ R12, SI
	SUBQ R13, DI
	SHRQ $3, SI
	SHRQ $3, DI
	MOVQ SI, i+72(FP)
	MOVQ DI, j+80(FP)
	VZEROUPPER
	RET
