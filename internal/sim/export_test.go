package sim

// Every run in this package's tests uses a poison frame pool, so the
// byte-exact delivery tests also prove that no frame is read or written
// after its release.
func init() { poisonFrames = true }
