package simd

// cpuid executes CPUID with EAX = leaf and ECX = sub.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads XCR0, the register in which the operating system says which
// register state it saves across context switches.
func xgetbv() (eax, edx uint32)

// detect is the one CPU check. AVX2 needs three things: the instructions
// (CPUID leaf 7, EBX bit 5), AVX with OSXSAVE (leaf 1, ECX bits 28 and 27),
// and an operating system that saves the XMM and YMM halves of the vector
// registers (XCR0 bits 1 and 2) — without the last, a context switch would
// corrupt the upper lanes. Anything less runs the SSE2 tiles, which every
// amd64 CPU has.
func detect() Tier {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return SSE2
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return SSE2
	}
	const xmmState, ymmState = 1 << 1, 1 << 2
	if xcr0, _ := xgetbv(); xcr0&(xmmState|ymmState) != xmmState|ymmState {
		return SSE2
	}
	const avx2 = 1 << 5
	if _, ebx, _, _ := cpuid(7, 0); ebx&avx2 == 0 {
		return SSE2
	}
	return AVX2
}
