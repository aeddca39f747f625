package core

// Doors for the external tests of this package (package core_test), which
// drive the catalog — a package core itself cannot import.

// EnabledWatcher lets a test scheduler that wraps pct stay watchable by the
// runtime.
type EnabledWatcher = enabledWatcher

// ExecuteOnce runs one execution of t under s on a runtime of its own, as
// the engine does after s.Prepare.
func ExecuteOnce(s FaultScheduler, t Test, maxSteps int) *BugReport {
	return newRuntime(s, runtimeConfig{maxSteps: maxSteps}).execute(t)
}
