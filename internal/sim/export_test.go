package sim

// ResetVMShared empties the shared compiled-code cache, so a test can
// observe a compilation a cache hit would otherwise skip.
func ResetVMShared() { vmShared.Reset() }
