//go:build race || sqdebug

package core

const allocCountsHold = false
