package sparse

// SpmmAsmAvailable reports whether this build carries the amd64 assembly
// row kernel (false elsewhere, where only the pure-Go loop exists).
const SpmmAsmAvailable = spmmAsmAvailable

// SetGenericKernels forces (true) or lifts (false) the pure-Go row body of
// MulDenseInto on builds that have the assembly kernel, so the differential
// suites can hold both to the reference bit for bit. It returns the previous
// setting for deferred restore.
func SetGenericKernels(disabled bool) bool {
	return spmmAsmDisabled.Swap(disabled)
}
