# Log every message, noting the odd ones; delay every fourth by 0.01 s,
# duplicate every fifth and inject a HEARTBEAT on every seventh.
incr n
if {$n % 2} {
    msg_log cur_msg odd
} else {
    msg_log cur_msg
}
if {$n % 4 == 0} {
    xDelay 0.01
}
if {$n % 5 == 0} {
    xDuplicate cur_msg
}
if {$n % 7 == 0} {
    inject HEARTBEAT receive sender 3
}
