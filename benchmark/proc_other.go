//go:build !linux

package main

import (
	"os/exec"
	"time"
)

func dieWithParent(*exec.Cmd) {}

func sleepUntil(t time.Time) { time.Sleep(time.Until(t)) }
