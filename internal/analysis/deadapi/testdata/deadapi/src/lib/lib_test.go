package lib

func useTestOnly() { TestOnly() }
