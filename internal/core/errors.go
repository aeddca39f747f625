package core

// ConfigError describes an invalid engine configuration: a negative
// bound, an unknown scheduler name, a malformed portfolio. The engine
// returns it from Explore and Replay instead of panicking, so callers —
// CLIs validating flags, services building runs from requests — can
// attribute the mistake to the exact field and present it without
// recovering from a panic. The public gostorm package aliases this type,
// and its options report the Options field they set, so a mistake has one
// name whichever layer catches it.
type ConfigError struct {
	// Field is the path of the configuration field at fault:
	// "Options.Iterations", "Options.Portfolio[1]",
	// "Test.Faults.MaxCrashes", "AgentConfig.Poll".
	Field string
	// Reason describes what is wrong with the value.
	Reason string
}

func (e *ConfigError) Error() string {
	return "gostorm: " + e.Field + ": " + e.Reason
}
